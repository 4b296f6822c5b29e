#include "cells/driver_models.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace xtv {

namespace {

/// Warps a switching wave: t' = mid + shift + (t - mid) * stretch, where
/// `mid` is the wave's 50% crossing. Anchoring at the midpoint keeps the
/// cell's switching instant in place under large stretches (the stretch
/// expands the transition symmetrically), which is what makes the
/// calibration well-conditioned: shift is simply the table-vs-quasi-static
/// delay difference.
SourceWave warp_wave(const SourceWave& wave, double shift, double stretch) {
  const auto& pts = wave.breakpoints();
  if (pts.size() <= 1 || (shift == 0.0 && stretch == 1.0)) return wave;
  const double v_mid = 0.5 * (pts.front().second + pts.back().second);
  const bool rising = pts.back().second > pts.front().second;
  // Locate the 50% crossing on the PWL.
  double mid = pts.front().first;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double v0 = pts[i - 1].second;
    const double v1 = pts[i].second;
    const bool crossed = rising ? (v0 <= v_mid && v1 >= v_mid)
                                : (v0 >= v_mid && v1 <= v_mid);
    if (crossed && v1 != v0) {
      mid = pts[i - 1].first +
            (v_mid - v0) / (v1 - v0) * (pts[i].first - pts[i - 1].first);
      break;
    }
  }
  std::vector<std::pair<double, double>> warped;
  warped.reserve(pts.size());
  double prev_t = -1e300;
  for (const auto& [t, v] : pts) {
    double tw = mid + shift + (t - mid) * stretch;
    tw = std::max(tw, 0.0);
    if (tw <= prev_t) tw = prev_t + 1e-15;  // keep strictly increasing
    warped.emplace_back(tw, v);
    prev_t = tw;
  }
  return SourceWave::pwl(std::move(warped));
}

}  // namespace

NonlinearTableDriver::NonlinearTableDriver(std::shared_ptr<const CellModel> model,
                                           SourceWave input,
                                           std::optional<CellModel::Warp> warp)
    : model_(std::move(model)), input_(std::move(input)) {
  if (!model_) throw std::runtime_error("NonlinearTableDriver: null model");
  if (warp.has_value()) input_ = warp_wave(input_, warp->shift, warp->stretch);
}

double NonlinearTableDriver::current(double v, double t) const {
  return model_->iv_surface.lookup(input_.value(t), v);
}

double NonlinearTableDriver::conductance(double v, double t) const {
  return model_->iv_surface.d_dy(input_.value(t), v);
}

}  // namespace xtv
