#include "util/step_control.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace xtv {

StepController::StepController(double tstop, double dt, double tol,
                               double max_step, std::vector<double> corners)
    : tstop_(tstop),
      dt_(dt),
      tol_(tol),
      max_step_(std::max(max_step, dt)),
      merge_(dt / 16.0),
      h_next_(dt),
      h_prev_(dt) {
  if (tol_ > 0.0) {
    // A warped drive wave can keep corners a femtosecond apart; one
    // landing serves them all.
    std::sort(corners.begin(), corners.end());
    for (const double c : corners) {
      if (c <= merge_ || c >= tstop_ - merge_) continue;
      if (!corners_.empty() && c - corners_.back() <= merge_) continue;
      corners_.push_back(c);
    }
  }
}

void StepController::start(std::span<const double> v) {
  if (tol_ <= 0.0) return;  // the fixed step keeps no history
  cur_.assign(v.begin(), v.end());
  prev_ = cur_;
}

void StepController::begin_step() {
  h_ = std::min(h_next_, tstop_ - t_);  // h_next_ stays dt on the fixed step
  lands_ = false;
  if (tol_ <= 0.0) return;
  while (next_corner_ < corners_.size() && corners_[next_corner_] <= t_ + merge_)
    ++next_corner_;
  const double target =
      next_corner_ < corners_.size() ? corners_[next_corner_] : tstop_;
  if (t_ + h_ + merge_ >= target) {
    target_ = target;
    h_ = target - t_;
    lands_ = true;
  }
}

bool StepController::accept(std::span<const double> v) {
  if (tol_ <= 0.0) {
    t_ += h_;
    return true;
  }
  const double r = h_ / h_prev_;
  double err = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i)
    err = std::max(err, std::fabs(v[i] - cur_[i] - r * (cur_[i] - prev_[i])));
  // A step within the merge distance of dt counts as the floor, so a
  // rejected landing step always leaves more than that to its corner.
  if (h_ > dt_ + merge_ && !(err <= tol_)) {
    h_ = std::max(0.5 * h_, dt_);
    lands_ = false;
    return false;
  }
  const bool at_corner = lands_ && target_ < tstop_;
  t_ = trial_time();
  h_prev_ = h_;
  std::swap(prev_, cur_);
  cur_.assign(v.begin(), v.end());
  if (at_corner)
    h_next_ = dt_;
  else
    h_next_ = std::max(err < 0.25 * tol_ ? std::min(2.0 * h_, max_step_) : h_, dt_);
  return true;
}

}  // namespace xtv
