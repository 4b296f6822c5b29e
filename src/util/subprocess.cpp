#include "util/subprocess.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "util/status.h"

namespace xtv {
namespace subprocess {

Pipe make_pipe() {
  int fds[2];
  if (::pipe(fds) != 0)
    throw NumericalError(StatusCode::kInternal,
                         std::string("subprocess: pipe() failed: ") +
                             std::strerror(errno));
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
  return Pipe{fds[0], fds[1]};
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void ignore_sigpipe() { ::signal(SIGPIPE, SIG_IGN); }

std::string ExitStatus::describe() const {
  char buf[64];
  if (signaled) {
    const char* name = ::strsignal(sig);
    std::snprintf(buf, sizeof(buf), "killed by signal %d (%s)", sig,
                  name ? name : "?");
  } else if (exited) {
    std::snprintf(buf, sizeof(buf), "exited with status %d", code);
  } else {
    std::snprintf(buf, sizeof(buf), "stopped in an unknown state");
  }
  return buf;
}

bool wait_for(pid_t pid, ExitStatus* status) {
  int raw = 0;
  pid_t got;
  do {
    got = ::waitpid(pid, &raw, 0);
  } while (got < 0 && errno == EINTR);
  if (got != pid) return false;
  ExitStatus s;
  s.exited = WIFEXITED(raw);
  if (s.exited) s.code = WEXITSTATUS(raw);
  s.signaled = WIFSIGNALED(raw);
  if (s.signaled) s.sig = WTERMSIG(raw);
  if (status) *status = s;
  return true;
}

bool try_wait(pid_t pid, ExitStatus* status) {
  int raw = 0;
  pid_t got;
  do {
    got = ::waitpid(pid, &raw, WNOHANG);
  } while (got < 0 && errno == EINTR);
  if (got != pid) return false;
  ExitStatus s;
  s.exited = WIFEXITED(raw);
  if (s.exited) s.code = WEXITSTATUS(raw);
  s.signaled = WIFSIGNALED(raw);
  if (s.signaled) s.sig = WTERMSIG(raw);
  if (status) *status = s;
  return true;
}

}  // namespace subprocess
}  // namespace xtv
