#include "serve/server.hpp"

#include <sys/socket.h>
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
    const ssize_t k = ::write(fd, s.data() + off, s.size() - off);
    if (k <= 0) {
      if (k < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(k);
  }
  return true;
}

/// Read up to the next '\n' (not included). False on EOF before any
/// byte arrived.
bool recv_line(int fd, std::string& line) {
  line.clear();
  char c;
  for (;;) {
    const ssize_t k = ::read(fd, &c, 1);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return !line.empty();
    if (c == '\n') return true;
    line.push_back(c);
  }
}

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
    if (const auto* t = doc.find("ticket"); t && t->is_number())
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
    std::string line;
    while (!shutdown_ && (max_requests == 0 || served < max_requests) &&
           recv_line(fd, line)) {
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
  const bool ok = send_all(fd, line + "\n") && recv_line(fd, rsp);
  ::close(fd);
  if (!ok) throw Error("serve: no response from " + socket_path);
  return rsp;
}

}  // namespace fit::serve
