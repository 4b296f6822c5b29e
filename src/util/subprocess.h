// Child-process plumbing for the forked lease holders (core/shard_exec.h,
// DESIGN.md §12) and the serve daemon's job runners (serve/daemon.h):
// pipe creation, child exit classification, and SIGPIPE hygiene.
#pragma once

#include <sys/types.h>

#include <string>

namespace xtv {
namespace subprocess {

/// A unidirectional pipe; both fds are close-on-exec. Throws
/// NumericalError(kInternal) when the kernel refuses.
struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
};
Pipe make_pipe();

/// Marks `fd` O_NONBLOCK (the daemon's poll-driven reads).
void set_nonblocking(int fd);

/// Children write frames into a pipe or socket their parent may have
/// abandoned; a SIGPIPE-terminated child would be indistinguishable from
/// a real crash, so children ignore the signal and handle the EPIPE
/// write error instead.
void ignore_sigpipe();

/// Classified waitpid(2) result.
struct ExitStatus {
  bool exited = false;    ///< WIFEXITED
  int code = 0;           ///< WEXITSTATUS when exited
  bool signaled = false;  ///< WIFSIGNALED
  int sig = 0;            ///< WTERMSIG when signaled
  bool clean() const { return exited && code == 0; }
  std::string describe() const;
};

/// Blocking waitpid (EINTR-retrying). Returns false if `pid` is not a
/// waitable child.
bool wait_for(pid_t pid, ExitStatus* status);

/// Non-blocking waitpid (WNOHANG, EINTR-retrying): true when `pid` was
/// reaped into `status`, false while it is still running (or is not a
/// waitable child). The serve daemon supervises its job runners this way
/// — pipe EOF alone is unreliable, because a runner's forked lease
/// holders inherit the pipe's write end and keep it open past the
/// runner's own death.
bool try_wait(pid_t pid, ExitStatus* status);

}  // namespace subprocess
}  // namespace xtv
