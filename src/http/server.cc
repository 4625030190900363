// Epoll keep-alive reactor behind ashttp::HttpServer (ROADMAP "event-driven
// HTTP edge"). The seed served one blocking thread per connection and kept
// every finished worker joinable until Stop() — at edge scale the thread
// table, not the visor, fell over first. Here:
//
//   * N reactor threads (default 1) each run an epoll loop over a disjoint
//     set of non-blocking connections. The listener belongs to reactor 0;
//     accepted fds are dealt round-robin across reactors.
//   * Request bytes feed the incremental RequestParser as they arrive, so a
//     slow or pipelining client costs a connection object, never a thread.
//   * Parsed requests run the handler on a bounded shared worker pool; the
//     response is handed back to the owning reactor over a completion queue
//     + eventfd, keeping every socket under single-threaded ownership
//     (responses stay in request order per connection — pipelining-safe).
//   * Writes are buffered and flushed opportunistically; EAGAIN arms
//     EPOLLOUT and the reactor finishes the flush when the socket drains.
//   * A connection cap (503 + close past it) and idle reaping bound edge
//     memory; an eventfd per reactor gives Stop() a clean, race-free exit.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/http/http.h"
#include "src/http/parser.h"
#include "src/obs/metrics.h"

namespace ashttp {
namespace internal {
namespace {

// Cached once; Counter/Gauge references are stable for the process.
struct EdgeMetrics {
  static EdgeMetrics& Get() {
    static EdgeMetrics metrics;
    return metrics;
  }
  asobs::Counter& accepts =
      asobs::Registry::Global().GetCounter("alloy_edge_accepts_total");
  asobs::Counter& overflows =
      asobs::Registry::Global().GetCounter("alloy_edge_overflows_total");
  asobs::Counter& reaped =
      asobs::Registry::Global().GetCounter("alloy_edge_reaped_total");
  asobs::Counter& parse_errors =
      asobs::Registry::Global().GetCounter("alloy_edge_parse_errors_total");
  asobs::Counter& requests =
      asobs::Registry::Global().GetCounter("alloy_edge_requests_total");
  asobs::Gauge& connections =
      asobs::Registry::Global().GetGauge("alloy_edge_connections");
};

std::string ErrorResponseWire(int status, const std::string& reason,
                              const std::string& body) {
  HttpResponse response;
  response.status = status;
  response.reason = reason;
  response.body = body;
  response.headers["connection"] = "close";
  return Serialize(response);
}

}  // namespace

// Owned by exactly one reactor; every field except `dead` is touched only
// on that reactor's thread. Workers get a shared_ptr plus a copy of the
// request, and come back through the completion queue.
struct EdgeConnection {
  explicit EdgeConnection(int fd_in, HttpServer* server_in,
                          RequestParser::Limits limits)
      : fd(fd_in), server(server_in), parser(limits) {}

  ~EdgeConnection() {
    if (fd >= 0) {
      ::close(fd);
    }
    if (flush_debt) {
      server->settle_debt_.fetch_sub(1, std::memory_order_relaxed);
    }
    EdgeMetrics::Get().connections.Add(-1);
    server->active_connections_.fetch_sub(1, std::memory_order_relaxed);
  }

  int fd;
  HttpServer* server;
  RequestParser parser;
  std::deque<HttpRequest> pending;  // parsed, awaiting dispatch (in order)
  bool handler_inflight = false;
  // Parse failed while earlier pipelined requests were still queued; the
  // error response is emitted once those responses have gone out.
  std::optional<std::string> deferred_error;
  std::string out;
  size_t out_offset = 0;
  uint32_t epoll_events = 0;  // currently-armed interest set
  bool close_after_flush = false;
  bool read_closed = false;
  bool flush_debt = false;  // counted in server->settle_debt_
  int64_t last_activity = 0;
  std::atomic<bool> dead{false};
};

class EdgeReactor {
 public:
  EdgeReactor(HttpServer* server, size_t index)
      : server_(server), index_(index) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);
    if (index_ == 0) {
      epoll_event listen_event{};
      listen_event.events = EPOLLIN;
      listen_event.data.fd = server_->listen_fd_;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_->listen_fd_,
                  &listen_event);
      listen_registered_ = true;
    }
  }

  ~EdgeReactor() {
    connections_.clear();  // destructors close the fds
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
    }
    if (wake_fd_ >= 0) {
      ::close(wake_fd_);
    }
  }

  void StartThread() {
    thread_ = std::thread([this] { Loop(); });
  }

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  void Wake() {
    const uint64_t one = 1;
    ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    (void)n;
  }

  // Called from reactor 0's accept path; hands a fresh connection to this
  // reactor's thread.
  void Adopt(std::shared_ptr<EdgeConnection> connection) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      adds_.push_back(std::move(connection));
    }
    Wake();
  }

  // Called from worker threads with the serialized response.
  void Complete(std::shared_ptr<EdgeConnection> connection, std::string wire,
                bool close_after) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      completions_.push_back(
          Completion{std::move(connection), std::move(wire), close_after});
    }
    Wake();
  }

 private:
  struct Completion {
    std::shared_ptr<EdgeConnection> connection;
    std::string wire;
    bool close_after;
  };

  void Loop() {
    const int64_t idle_nanos = server_->options_.idle_timeout_ms * 1000000;
    // The reap scan needs a periodic wake; a quarter of the timeout keeps
    // reap latency bounded without busy-spinning a 10k-connection table.
    const int tick_ms =
        idle_nanos > 0
            ? static_cast<int>(std::clamp<int64_t>(
                  server_->options_.idle_timeout_ms / 4, 10, 1000))
            : 1000;
    epoll_event events[128];
    while (server_->running_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epoll_fd_, events, 128, tick_ms);
      if (!server_->running_.load(std::memory_order_acquire)) {
        break;
      }
      if (index_ == 0 && listen_registered_ &&
          !server_->accepting_.load(std::memory_order_acquire)) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, server_->listen_fd_, nullptr);
        listen_registered_ = false;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd_) {
          DrainWakeFd();
          continue;
        }
        if (index_ == 0 && fd == server_->listen_fd_) {
          AcceptReady();
          continue;
        }
        auto it = connections_.find(fd);
        if (it == connections_.end()) {
          continue;
        }
        std::shared_ptr<EdgeConnection> connection = it->second;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          Close(connection);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) {
          ReadReady(connection);
        }
        if (!connection->dead.load(std::memory_order_relaxed) &&
            (events[i].events & EPOLLOUT) != 0) {
          Flush(connection);
        }
      }
      DrainInbox();
      if (idle_nanos > 0) {
        ReapIdle(idle_nanos);
      }
    }
  }

  void DrainWakeFd() {
    uint64_t value;
    while (::read(wake_fd_, &value, sizeof(value)) > 0) {
    }
  }

  void AcceptReady() {
    if (!server_->accepting_.load(std::memory_order_acquire)) {
      return;
    }
    while (true) {
      const int fd = ::accept4(server_->listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        return;  // EAGAIN, or EMFILE — either way, back to the loop
      }
      int enable = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
      const size_t active = server_->active_connections_.load(
          std::memory_order_relaxed);
      if (active >= server_->options_.max_connections) {
        // Over the cap: a best-effort 503 (the socket buffer of a fresh
        // connection always has room for it) and an immediate close.
        EdgeMetrics::Get().overflows.Add();
        const std::string wire = ErrorResponseWire(
            503, "Service Unavailable", "connection limit reached");
        ssize_t sent = ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
        (void)sent;
        ::close(fd);
        continue;
      }
      EdgeMetrics::Get().accepts.Add();
      EdgeMetrics::Get().connections.Add(1);
      server_->active_connections_.fetch_add(1, std::memory_order_relaxed);
      RequestParser::Limits limits;
      limits.max_header_bytes = server_->options_.max_header_bytes;
      limits.max_body_bytes = server_->options_.max_body_bytes;
      auto connection =
          std::make_shared<EdgeConnection>(fd, server_, limits);
      connection->last_activity = asbase::MonoNanos();
      const size_t target =
          server_->accept_cursor_.fetch_add(1, std::memory_order_relaxed) %
          server_->reactors_.size();
      if (target == 0) {
        Register(std::move(connection));
      } else {
        server_->reactors_[target]->Adopt(std::move(connection));
      }
    }
  }

  void Register(std::shared_ptr<EdgeConnection> connection) {
    const int fd = connection->fd;
    connections_[fd] = connection;
    connection->epoll_events = EPOLLIN;
    epoll_event event{};
    event.events = connection->epoll_events;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  }

  void DrainInbox() {
    std::vector<std::shared_ptr<EdgeConnection>> adds;
    std::vector<Completion> completions;
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      adds.swap(adds_);
      completions.swap(completions_);
    }
    for (auto& connection : adds) {
      Register(std::move(connection));
    }
    for (auto& completion : completions) {
      auto& connection = completion.connection;
      server_->settle_debt_.fetch_sub(1, std::memory_order_relaxed);
      if (connection->dead.load(std::memory_order_relaxed)) {
        continue;
      }
      EdgeMetrics::Get().requests.Add();
      connection->handler_inflight = false;
      connection->last_activity = asbase::MonoNanos();
      connection->out += completion.wire;
      NoteOutGrew(connection);
      if (completion.close_after) {
        // "Connection: close" means this is the final response; drop any
        // pipelined requests behind it.
        connection->close_after_flush = true;
        connection->pending.clear();
        connection->deferred_error.reset();
      }
      Advance(connection);
    }
  }

  // Central per-connection state pump: dispatch the next parsed request (or
  // the deferred parse-error response), flush buffered output, retune the
  // epoll interest set, and close once a final response has fully drained.
  void Advance(const std::shared_ptr<EdgeConnection>& connection) {
    if (!connection->handler_inflight && !connection->close_after_flush) {
      if (!connection->pending.empty()) {
        HttpRequest request = std::move(connection->pending.front());
        connection->pending.pop_front();
        connection->handler_inflight = true;
        Dispatch(connection, std::move(request));
      } else if (connection->deferred_error.has_value()) {
        connection->out += *connection->deferred_error;
        connection->deferred_error.reset();
        connection->close_after_flush = true;
        NoteOutGrew(connection);
      } else if (connection->read_closed) {
        connection->close_after_flush = true;  // nothing owed, peer is gone
      }
    }
    Flush(connection);
  }

  void NoteOutGrew(const std::shared_ptr<EdgeConnection>& connection) {
    if (!connection->flush_debt &&
        connection->out_offset < connection->out.size()) {
      connection->flush_debt = true;
      server_->settle_debt_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void Dispatch(std::shared_ptr<EdgeConnection> connection,
                HttpRequest request) {
    server_->settle_debt_.fetch_add(1, std::memory_order_relaxed);
    EdgeReactor* reactor = this;
    server_->workers_->Submit([reactor, connection = std::move(connection),
                               request = std::move(request)]() mutable {
      const bool close_after = WantsClose(request);
      HttpResponse response = connection->server->handler_(request);
      if (close_after) {
        response.headers["connection"] = "close";
      }
      reactor->Complete(std::move(connection), Serialize(response),
                        close_after);
    });
  }

  void ReadReady(const std::shared_ptr<EdgeConnection>& connection) {
    char buffer[65536];
    while (true) {
      const ssize_t n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        Close(connection);
        return;
      }
      if (n == 0) {
        // Peer finished sending. Advance() serves whatever is already
        // queued, then the flush path closes the connection.
        connection->read_closed = true;
        break;
      }
      connection->last_activity = asbase::MonoNanos();
      std::vector<HttpRequest> parsed;
      asbase::Status status = connection->parser.Feed(
          std::string_view(buffer, static_cast<size_t>(n)), &parsed);
      for (auto& request : parsed) {
        connection->pending.push_back(std::move(request));
      }
      if (!status.ok()) {
        EdgeMetrics::Get().parse_errors.Add();
        const int code = RequestParser::StatusForParseError(status);
        const char* reason = code == 431 ? "Request Header Fields Too Large"
                             : code == 413 ? "Payload Too Large"
                                           : "Bad Request";
        connection->deferred_error =
            ErrorResponseWire(code, reason, status.ToString());
        break;  // stop reading a poisoned stream
      }
      if (static_cast<size_t>(n) < sizeof(buffer)) {
        break;  // short read: the socket is drained (saves one EAGAIN)
      }
    }
    Advance(connection);
  }

  void Flush(const std::shared_ptr<EdgeConnection>& connection) {
    while (connection->out_offset < connection->out.size()) {
      const ssize_t n = ::send(
          connection->fd, connection->out.data() + connection->out_offset,
          connection->out.size() - connection->out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          UpdateInterest(connection);
          return;
        }
        Close(connection);
        return;
      }
      connection->out_offset += static_cast<size_t>(n);
      connection->last_activity = asbase::MonoNanos();
    }
    connection->out.clear();
    connection->out_offset = 0;
    if (connection->flush_debt) {
      connection->flush_debt = false;
      server_->settle_debt_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (connection->close_after_flush) {
      Close(connection);
      return;
    }
    UpdateInterest(connection);
  }

  // Keeps the epoll interest set in sync with connection state: EPOLLOUT
  // while a flush is parked on a full socket, EPOLLIN unless reading is
  // paused for backpressure (too many parsed-but-unserved requests or too
  // many unsent response bytes) or the stream is poisoned/closed.
  void UpdateInterest(const std::shared_ptr<EdgeConnection>& connection) {
    uint32_t wanted = 0;
    const bool throttled =
        connection->pending.size() >= server_->options_.max_pipeline_depth ||
        connection->out.size() - connection->out_offset >
            server_->options_.max_buffered_out;
    if (!throttled && !connection->deferred_error.has_value() &&
        !connection->close_after_flush && !connection->read_closed) {
      wanted |= EPOLLIN;
    }
    if (connection->out_offset < connection->out.size()) {
      wanted |= EPOLLOUT;
    }
    if (wanted != connection->epoll_events) {
      connection->epoll_events = wanted;
      epoll_event event{};
      event.events = wanted;
      event.data.fd = connection->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection->fd, &event);
    }
  }

  void Close(const std::shared_ptr<EdgeConnection>& connection) {
    if (connection->dead.exchange(true, std::memory_order_relaxed)) {
      return;
    }
    if (connection->flush_debt) {
      connection->flush_debt = false;
      server_->settle_debt_.fetch_sub(1, std::memory_order_relaxed);
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection->fd, nullptr);
    connections_.erase(connection->fd);
    // The fd itself closes in the destructor, once any in-flight worker
    // task has dropped its reference — that keeps the fd number from being
    // reused while a completion for it is still in an inbox.
  }

  void ReapIdle(int64_t idle_nanos) {
    const int64_t now = asbase::MonoNanos();
    std::vector<std::shared_ptr<EdgeConnection>> doomed;
    for (const auto& [fd, connection] : connections_) {
      if (connection->handler_inflight || !connection->pending.empty()) {
        continue;
      }
      if (!connection->parser.idle() ||
          connection->out_offset < connection->out.size()) {
        continue;  // mid-request or mid-response: not idle, just slow
      }
      if (now - connection->last_activity > idle_nanos) {
        doomed.push_back(connection);
      }
    }
    for (const auto& connection : doomed) {
      EdgeMetrics::Get().reaped.Add();
      Close(connection);
    }
  }

  HttpServer* server_;
  size_t index_;
  bool listen_registered_ = false;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::unordered_map<int, std::shared_ptr<EdgeConnection>> connections_;

  std::mutex inbox_mutex_;
  std::vector<std::shared_ptr<EdgeConnection>> adds_;
  std::vector<Completion> completions_;
};

}  // namespace internal

HttpServer::HttpServer(HttpHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(options) {
  if (options_.reactors == 0) {
    options_.reactors = 1;
  }
  if (options_.workers == 0) {
    // The visor's queue-with-budget admission *blocks* the handler until a
    // slot frees, so every queued invocation occupies an edge worker for
    // its whole wait. The default bound must therefore comfortably exceed
    // max_inflight + queue depth of a typical visor, not just the CPU
    // count.
    options_.workers = std::max<size_t>(
        64, 4 * std::max<size_t>(1, std::thread::hardware_concurrency()));
  }
}

HttpServer::~HttpServer() { Stop(); }

asbase::Status HttpServer::Start(uint16_t port) {
  if (running_.load()) {
    return asbase::FailedPrecondition("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return asbase::Internal("socket() failed");
  }
  int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return asbase::Unavailable("bind failed on port " + std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  // A deep backlog so a connection storm is bounded by how fast the reactor
  // drains accept4, not by SYN-queue overflow (the kernel still clamps to
  // net.core.somaxconn).
  if (::listen(listen_fd_, 4096) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return asbase::Internal("listen failed");
  }
  workers_ = std::make_unique<asbase::ThreadPool>(options_.workers);
  settle_debt_.store(0, std::memory_order_relaxed);
  accepting_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  reactors_.reserve(options_.reactors);
  for (size_t i = 0; i < options_.reactors; ++i) {
    reactors_.push_back(std::make_unique<internal::EdgeReactor>(this, i));
  }
  for (auto& reactor : reactors_) {
    reactor->StartThread();
  }
  return asbase::OkStatus();
}

void HttpServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  // Phase 1: stop taking new connections, but keep the reactors serving so
  // in-flight handlers (e.g. a visor unwinding its admission queue with
  // 503s during drain) still get their responses onto the wire.
  accepting_.store(false, std::memory_order_release);
  for (auto& reactor : reactors_) {
    reactor->Wake();
  }
  const int64_t settle_deadline = asbase::MonoNanos() + 5ll * 1000000000;
  while (asbase::MonoNanos() < settle_deadline) {
    workers_->Drain();
    if (settle_debt_.load(std::memory_order_relaxed) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (settle_debt_.load(std::memory_order_relaxed) != 0) {
    AS_LOG(kWarn) << "edge stop: abandoning unflushed responses after 5s";
  }
  // Phase 2: tear down. Reactors exit, then any straggler handler tasks
  // (their completions go unread but the inboxes outlive them), then the
  // connection table (destructors close the fds).
  running_.store(false, std::memory_order_release);
  for (auto& reactor : reactors_) {
    reactor->Wake();
  }
  for (auto& reactor : reactors_) {
    reactor->Join();
  }
  workers_->Drain();
  reactors_.clear();
  workers_.reset();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

size_t HttpServer::active_connections() const {
  return active_connections_.load(std::memory_order_relaxed);
}

}  // namespace ashttp
