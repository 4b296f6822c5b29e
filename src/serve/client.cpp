#include "serve/client.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "util/atomic_file.h"
#include "util/log.h"

namespace xtv {
namespace serve {

namespace {

double now_ms() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool parse_tcp_endpoint(const std::string& endpoint, std::string* host,
                        std::string* port) {
  std::string t = endpoint;
  bool forced = false;
  if (t.rfind("tcp:", 0) == 0) {
    t = t.substr(4);
    forced = true;
  } else if (t.find('/') != std::string::npos) {
    return false;  // a path is always a Unix socket
  }
  const std::size_t colon = t.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= t.size())
    return false;
  const std::string p = t.substr(colon + 1);
  if (!forced)
    for (char c : p)
      if (c < '0' || c > '9') return false;  // "a:b" without tcp: = a path
  if (host) *host = t.substr(0, colon);
  if (port) *port = p;
  return true;
}

int listen_tcp(const std::string& address, const std::string& endpoint_file,
               std::string* bound, std::string* error) {
  std::string host, port;
  if (!parse_tcp_endpoint("tcp:" + address, &host, &port)) {
    *error = "listen address must be host:port, got \"" + address + "\"";
    return -1;
  }
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (gai != 0) {
    *error = "cannot resolve " + address + ": " + ::gai_strerror(gai);
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, 64) == 0)
      break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    *error = "cannot bind TCP listener on " + address + ": " +
             std::strerror(errno);
    return -1;
  }

  // Port 0 resolves to an ephemeral port: read back what was bound.
  sockaddr_storage addr;
  socklen_t len = sizeof(addr);
  char bhost[NI_MAXHOST] = {0};
  char bport[NI_MAXSERV] = {0};
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      ::getnameinfo(reinterpret_cast<sockaddr*>(&addr), len, bhost,
                    sizeof(bhost), bport, sizeof(bport),
                    NI_NUMERICHOST | NI_NUMERICSERV) != 0) {
    *error = "cannot read back the port bound for " + address;
    ::close(fd);
    return -1;
  }
  *bound = std::string(bhost) + ":" + bport;
  std::string werr;
  if (!endpoint_file.empty() &&
      !write_file_atomic(endpoint_file, *bound + "\n", &werr))
    logf(LogLevel::kWarn, "endpoint file %s: %s", endpoint_file.c_str(),
         werr.c_str());
  return fd;
}

bool ServeClient::connect(const std::string& endpoint, std::string* error) {
  close();

  std::string host, port;
  if (parse_tcp_endpoint(endpoint, &host, &port)) {
    addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (gai != 0) {
      if (error)
        *error = "cannot resolve " + endpoint + ": " + ::gai_strerror(gai);
      return false;
    }
    for (addrinfo* ai = res; ai; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family, ai->ai_socktype,
                              ai->ai_protocol);
      if (fd < 0) continue;
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        fd_ = fd;
        break;
      }
      ::close(fd);
    }
    ::freeaddrinfo(res);
    if (fd_ < 0) {
      if (error)
        *error = "connect " + endpoint + ": " + std::strerror(errno);
      return false;
    }
    decoder_ = WireDecoder();
    return true;
  }

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (endpoint.size() >= sizeof(addr.sun_path)) {
    if (error) *error = "socket path too long: " + endpoint;
    return false;
  }
  std::strncpy(addr.sun_path, endpoint.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error) *error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) *error = "connect " + endpoint + ": " + std::strerror(errno);
    close();
    return false;
  }
  decoder_ = WireDecoder();
  return true;
}

bool ServeClient::send(WireType type, const std::string& payload,
                       std::string* error) {
  if (fd_ < 0) {
    if (error) *error = "not connected";
    return false;
  }
  const std::string frame = wire_encode_frame(type, payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      if (error) *error = std::string("write: ") + std::strerror(errno);
      return false;
    }
  }
  return true;
}

bool ServeClient::recv(WireFrame* frame, double timeout_ms,
                       std::string* error) {
  const double deadline = now_ms() + timeout_ms;
  for (;;) {
    if (decoder_.next(frame)) return true;
    if (decoder_.corrupt()) {
      if (error) *error = "corrupt frame stream from daemon";
      return false;
    }
    if (fd_ < 0) {
      if (error) *error = "not connected";
      return false;
    }
    const double remaining = deadline - now_ms();
    if (remaining <= 0.0) {
      if (error) *error = "timed out waiting for the daemon";
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) {
      if (error) *error = "timed out waiting for the daemon";
      return false;
    }
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n == 0) {
      if (error) *error = "daemon closed the connection";
      return false;
    } else {
      if (error) *error = std::string("read: ") + std::strerror(errno);
      return false;
    }
  }
}

bool submit_and_wait(
    ServeClient& client, const JobSpec& spec, double timeout_ms,
    JobResult* result, std::string* error,
    const std::function<void(const JournalRecord&)>& on_finding) {
  std::string token = "c";  // two-step append: GCC 12 -Wrestrict false positive on operator+
  token += job_key_hex(spec.key());
  if (!client.send(WireType::kJobSubmit, token + " " + spec.to_text(),
                   error))
    return false;

  const double deadline = now_ms() + timeout_ms;
  JobResult out;

  // Phase 1: the accept/reject verdict for our token.
  for (;;) {
    WireFrame f;
    if (!client.recv(&f, deadline - now_ms(), error)) return false;
    std::istringstream in(f.payload);
    std::string got_token;
    in >> got_token;
    if (f.type == WireType::kJobRejected &&
        (got_token == token || got_token == "-")) {
      // "-" = connection-level rejection (e.g. conn-limit): not tied to
      // any token, but fatal for this submission all the same.
      std::string reason, detail_escaped, detail;
      in >> reason >> detail_escaped;
      serve_unescape(detail_escaped, &detail);
      if (error) *error = "rejected (" + reason + "): " + detail;
      return false;
    }
    if (f.type == WireType::kJobAccepted && got_token == token) {
      std::string hex;
      in >> hex;
      if (!parse_job_key(hex, &out.key)) {
        if (error) *error = "malformed accept frame: " + f.payload;
        return false;
      }
      break;
    }
    // Frames for other jobs this connection watches: ignore here.
  }

  // Phase 2: findings stream until the terminal verdict.
  const std::string hex = job_key_hex(out.key);
  for (;;) {
    WireFrame f;
    if (!client.recv(&f, deadline - now_ms(), error)) return false;
    std::istringstream in(f.payload);
    std::string got_hex;
    in >> got_hex;
    if (got_hex != hex) continue;
    if (f.type == WireType::kJobFinding) {
      const std::size_t sp = f.payload.find(' ');
      if (sp == std::string::npos) continue;
      JournalRecord rec;
      if (!journal_decode(f.payload.substr(sp + 1), rec)) continue;
      if (!out.findings.emplace(rec.finding.net, rec).second)
        ++out.duplicate_findings;
      else if (on_finding)
        on_finding(rec);
    } else if (f.type == WireType::kJobDone) {
      std::string verdict;
      in >> verdict;
      JobState s;
      if (!parse_job_state(verdict, &s)) {
        if (error) *error = "malformed done frame: " + f.payload;
        return false;
      }
      out.state = s;
      std::getline(in, out.summary);
      if (!out.summary.empty() && out.summary.front() == ' ')
        out.summary.erase(0, 1);
      break;
    }
  }
  if (result) *result = std::move(out);
  return true;
}

}  // namespace serve
}  // namespace xtv
