// The wire layer of the persistent transform service: a Unix-domain
// stream socket speaking newline-delimited JSON. One request object per
// line, one response object per line, connections served sequentially
// (the transform itself is the bottleneck, not connection handling).
//
// Verbs, selected by the "verb" member (default "transform"):
//   transform  a serve::Request (see service.hpp) — including the
//              "batch" (shared-basis batch width) and "tenant"
//              (submitting tenant) members; the response is the
//              admission verdict plus plan/execution results.
//   release    {"verb":"release","ticket":N} frees a plan_only
//              reservation; the response carries "released" plus one
//              response object per queued request that ran as a result.
//   stats      the service's serve.* metrics as a JSON object.
//   tenants    the tenant ledger: the configured quota and the bytes
//              each tenant currently holds reserved.
//   shutdown   acknowledges and stops the accept loop.
//
// Malformed lines never kill the server: they come back as
// {"outcome":"error","error":<taxonomy message>}.
//
// One connection cannot hold the server: a request line longer than
// kMaxLineBytes is answered with one error and its connection closed,
// and a connection that sends nothing for kIdleTimeoutSeconds is
// dropped, so the next client is served.
#pragma once

#include <cstddef>
#include <string>

#include "serve/service.hpp"

namespace fit::serve {

/// Longest request line the server reads, in bytes without the '\n'.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;
/// Seconds a connection may stay silent (or leave a reply unread)
/// before the server drops it.
inline constexpr int kIdleTimeoutSeconds = 5;

/// Unix-domain NDJSON server wrapping one TransformService.
class Server {
 public:
  /// Bind to `socket_path` (unlinking any stale socket first).
  /// Throws fit::Error when the socket cannot be created or bound.
  Server(TransformService service, std::string socket_path);
  /// Closes the listening socket and unlinks the path.
  ~Server();

  Server(const Server&) = delete;             ///< Not copyable.
  Server& operator=(const Server&) = delete;  ///< Not copyable.

  /// Accept and serve connections until a shutdown request arrives or
  /// `max_requests` lines have been handled (0 = no limit). Returns
  /// the number of request lines served.
  std::size_t serve_forever(std::size_t max_requests = 0);

  /// Handle one already-parsed request line (exposed for tests and for
  /// the in-process smoke path — no socket needed).
  std::string handle_line(const std::string& line);

  /// The wrapped service (for metrics inspection in tests).
  TransformService& service() { return service_; }
  /// The bound socket path.
  const std::string& socket_path() const { return path_; }

  /// Client helper: connect to `socket_path`, send one line, return
  /// the one response line. Throws fit::Error on connect/io failure.
  static std::string request(const std::string& socket_path,
                             const std::string& line);

 private:
  TransformService service_;
  std::string path_;
  int listen_fd_ = -1;
  bool shutdown_ = false;
};

}  // namespace fit::serve
