#include "liplib/serve/server.hpp"

#include "liplib/support/check.hpp"

namespace liplib::serve {

Server::Server(ServerOptions opts) : ctx_(opts) {}

Server::~Server() {
  shutdown();
  wait();
}

void Server::start() {
  LIPLIB_EXPECT(!listener_, "Server::start called twice");
  listener_ = std::make_unique<Listener>(
      ctx_.opts.port, ctx_.opts.max_connections,
      [this](int fd) { return serve_connection(fd); },
      [](const std::string& message) {
        return error_envelope(Json(), message);
      });
}

bool Server::serve_connection(int fd) {
  std::string payload;
  try {
    while (!ctx_.draining.load()) {
      if (!read_frame(fd, payload, ctx_.opts.limits)) break;  // clean EOF
      write_frame(fd, handle_payload(payload, ctx_));
    }
  } catch (const std::exception& e) {
    // Protocol violation or I/O error: tell the peer why when the pipe
    // still works, then drop the connection.
    try {
      write_frame(fd, error_envelope(Json(), e.what()));
    } catch (...) {
    }
    ctx_.registry.counter_add(kProtocolErrorsMetric, {});
  }
  // A shutdown request drains the whole daemon once its own response is
  // on the wire.
  return !ctx_.draining.load();
}

void Server::shutdown() {
  ctx_.draining.store(true);
  if (listener_) listener_->stop();
}

void Server::wait() {
  if (listener_) listener_->wait();
}

}  // namespace liplib::serve
