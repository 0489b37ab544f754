#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace fit::serve {

namespace {

void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw Error("socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("connect to " + path);
  }
  return fd;
}

bool send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    // MSG_NOSIGNAL: a peer that hung up is a failed send, not a
    // SIGPIPE that ends the process.
    const ssize_t k =
        ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    if (k <= 0) {
      if (k < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(k);
  }
  return true;
}

/// Buffered line reader over one connection: reads in chunks and keeps
/// the bytes after a line's '\n' for the connection's next line.
class LineReader {
 public:
  enum class Status { Line, End, TooLong };

  /// Lines longer than `max_line` bytes (without the '\n') are
  /// reported as TooLong instead of being read to their end.
  LineReader(int fd, std::size_t max_line) : fd_(fd), max_line_(max_line) {}

  /// The next line, without its '\n'. End on EOF before any byte of
  /// a line arrived, on a read error and on a receive timeout; a
  /// partial line at EOF is a Line.
  Status next(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', scanned_);
      if (nl != std::string::npos) {
        if (nl > max_line_) return Status::TooLong;
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scanned_ = 0;
        return Status::Line;
      }
      scanned_ = buf_.size();
      if (buf_.size() > max_line_) return Status::TooLong;
      char chunk[4096];
      const ssize_t k = ::read(fd_, chunk, sizeof(chunk));
      if (k < 0) {
        if (errno == EINTR) continue;
        return Status::End;
      }
      if (k == 0) {
        if (buf_.empty()) return Status::End;
        line.swap(buf_);
        buf_.clear();
        scanned_ = 0;
        return Status::Line;
      }
      buf_.append(chunk, static_cast<std::size_t>(k));
    }
  }

 private:
  int fd_;
  std::size_t max_line_;
  std::string buf_;          // bytes read past the last line returned
  std::size_t scanned_ = 0;  // prefix of buf_ known to hold no '\n'
};

}  // namespace

Server::Server(TransformService service, std::string socket_path)
    : service_(std::move(service)), path_(std::move(socket_path)) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path))
    throw Error("socket path too long: " + path_);
  std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path_.c_str());  // stale socket from a crashed server
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("bind " + path_);
  }
  if (::listen(listen_fd_, 8) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("listen " + path_);
  }
  FIT_LOG_INFO("serve: listening on " << path_);
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

std::string Server::handle_line(const std::string& line) {
  // Parse once and route on the verb; the transform path hands the
  // parsed document to the service. A line that is not JSON goes to
  // submit_line, whose taxonomy reply reports the parse error.
  obs::json::Value doc;
  try {
    doc = obs::json::parse(line);
  } catch (const Error&) {
    return service_.submit_line(line).to_json().dump();
  }
  std::string verb = "transform";
  std::uint64_t ticket = 0;
  if (doc.is_object()) {
    if (const auto* v = doc.find("verb"); v && v->is_string())
      verb = v->as_string();
    // Tickets start at 1; a number outside [1, 2^64) stays 0, which
    // no reservation holds, rather than reaching the cast.
    if (const auto* t = doc.find("ticket");
        t && t->is_number() && t->as_number() >= 1 &&
        t->as_number() < 0x1p64)
      ticket = static_cast<std::uint64_t>(t->as_number());
  }

  if (verb == "stats") return service_.metrics().to_json(false).dump();
  if (verb == "tenants") {
    // Per-tenant reservation ledger: who holds how much against which
    // quota — the operator's view of the multi-tenant admission state.
    obs::json::Value doc = obs::json::Value::object();
    doc["outcome"] = "tenants";
    doc["quota_bytes"] = service_.tenant_quota_bytes();
    doc["reserved_bytes"] = service_.reserved_bytes();
    obs::json::Value per = obs::json::Value::object();
    for (const auto& [tenant, bytes] : service_.tenant_reservations())
      per[tenant.empty() ? std::string("(anonymous)") : tenant] = bytes;
    doc["tenants"] = std::move(per);
    return doc.dump();
  }
  if (verb == "shutdown") {
    shutdown_ = true;
    obs::json::Value ack = obs::json::Value::object();
    ack["outcome"] = "shutdown";
    return ack.dump();
  }
  if (verb == "release") {
    obs::json::Value doc = obs::json::Value::object();
    doc["outcome"] = "released";
    doc["ticket"] = ticket;
    obs::json::Value ran = obs::json::Value::array();
    for (const Response& r : service_.release(ticket))
      ran.push_back(r.to_json());
    doc["ran"] = std::move(ran);
    return doc.dump();
  }
  return service_.submit(doc).to_json().dump();
}

std::size_t Server::serve_forever(std::size_t max_requests) {
  std::size_t served = 0;
  while (!shutdown_ && (max_requests == 0 || served < max_requests)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      throw_errno("accept");
    }
    // Connections are served one at a time, so a silent client would
    // hold every other one off: drop it after kIdleTimeoutSeconds
    // without a byte (and a peer that stops reading its replies
    // likewise).
    const timeval idle{kIdleTimeoutSeconds, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &idle, sizeof(idle));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &idle, sizeof(idle));
    LineReader in(fd, kMaxLineBytes);
    std::string line;
    while (!shutdown_ && (max_requests == 0 || served < max_requests)) {
      const LineReader::Status got = in.next(line);
      if (got == LineReader::Status::End) break;
      if (got == LineReader::Status::TooLong) {
        // One error for the line, then the connection goes: the rest
        // of the line cannot be told apart from the next request.
        ++served;
        Response rsp;
        rsp.error = "request line exceeds " + std::to_string(kMaxLineBytes) +
                    " bytes";
        send_all(fd, rsp.to_json().dump() + "\n");
        break;
      }
      if (line.empty()) continue;
      ++served;
      if (!send_all(fd, handle_line(line) + "\n")) break;
    }
    ::close(fd);
  }
  return served;
}

std::string Server::request(const std::string& socket_path,
                            const std::string& line) {
  const int fd = connect_unix(socket_path);
  std::string rsp;
  const bool ok = send_all(fd, line + "\n") &&
                  LineReader(fd, std::string::npos).next(rsp) ==
                      LineReader::Status::Line;
  ::close(fd);
  if (!ok) throw Error("serve: no response from " + socket_path);
  return rsp;
}

}  // namespace fit::serve
