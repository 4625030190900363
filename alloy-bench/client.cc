// alloy-bench load generator: one process, at most four threads, one
// keep-alive connection per thread, driving POST /invoke/<workflow>.
//
//   alloy_bench_client --port P --workload W --workflows a,b --seed S
//                      --mode warmup|open|closed [--conns C]
//                      [--rate R] [--seconds T]
//                      [--trace 1 --spans-out FILE --rid-base N]
//                      [--latencies-out FILE]
//
// warmup  one checked request per input, in order (first boots).
// open    open loop: requests due at a constant --rate for --seconds, each
//         to a seeded random input; each request is timed from its due
//         time, so a stall also delays the requests queued behind it. How
//         late a thread sent past max(due, pick-up) is the generator's own
//         lag.
// closed  each thread sends its next request when the last one completes.
//
// Thread t serves only the workflows whose index is t modulo --conns (its
// lane), in both loops: with one tenant per connection each tenant has at
// most one request in flight, as a tenant with one client would.
//
// Every response is checked against the reference answer. Prints one JSON
// summary line; with --trace 1 the request bodies carry a "rid" (and an
// x-request-id header) and one http span per request goes to --spans-out.
// --latencies-out writes one "latency lag" line (us) per request in schedule
// order; the latency of a request without a correct answer reads -1.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/json.h"
#include "src/workloads/generic_apps.h"
#include "src/workloads/inputs.h"

namespace {

constexpr int kMaxConns = 4;
constexpr size_t kCorpusBytes = 256 << 10;
constexpr int kCorpora = 8;
constexpr const char* kTinyAnswer = "4096";
constexpr int64_t kBucketNanos = 250'000'000;

struct Options {
  uint16_t port = 0;
  std::string workload;
  std::vector<std::string> workflows;
  uint64_t seed = 1;
  std::string mode;
  int conns = kMaxConns;
  double rate = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
  std::string latencies_out;
  int64_t rid_base = 0;
};

// One request shape: which workflow, which body, which answer.
struct Input {
  std::string workflow;
  size_t workflow_index = 0;
  std::string body;  // untraced body; traced bodies splice a rid in front
  std::string expected;
};

struct Outcome {
  int status = 0;  // 0 = transport error
  bool correct = false;
  bool pkey_exhausted = false;
  int64_t invoke_nanos = 0;
  bool warm_start = false;
};

struct Sample {
  int64_t rid = -1;
  int input = 0;
  int64_t due = 0;
  int64_t pick = 0;
  int64_t send = 0;
  int64_t end = 0;
  size_t request_bytes = 0;
  Outcome outcome;
};

std::vector<Input> MakeInputs(const Options& options) {
  std::vector<Input> inputs;
  if (options.workload == "dataflow-wordcount") {
    for (int k = 0; k < kCorpora; ++k) {
      const std::vector<uint8_t> corpus = aswl::MakeTextCorpus(
          kCorpusBytes, options.seed * 1000003ULL + static_cast<uint64_t>(k));
      asbase::Json body;
      body.Set("input", "/corpus.txt");
      body.Set("corpus", std::string(corpus.begin(), corpus.end()));
      inputs.push_back(Input{options.workflows.at(0), 0, body.Dump(),
                             aswl::ExpectedWordCountResult(corpus)});
    }
  } else {
    for (size_t w = 0; w < options.workflows.size(); ++w) {
      inputs.push_back(Input{options.workflows[w], w, "{}", kTinyAnswer});
    }
  }
  return inputs;
}

// The inputs each thread serves: lane t holds the inputs of the workflows
// whose index is t modulo `conns`.
std::vector<std::vector<int>> MakeLanes(const std::vector<Input>& inputs,
                                        int conns) {
  std::vector<std::vector<int>> lanes(static_cast<size_t>(conns));
  for (size_t i = 0; i < inputs.size(); ++i) {
    lanes[inputs[i].workflow_index % lanes.size()].push_back(static_cast<int>(i));
  }
  return lanes;
}

class Connection {
 public:
  explicit Connection(uint16_t port) : port_(port) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Sends `request` and reads one response. Returns the status code, or 0
  // on a transport failure (the connection is then re-opened next time).
  int RoundTrip(const std::string& request, std::string* body) {
    if (fd_ < 0 && !Open()) {
      return 0;
    }
    if (!WriteAll(request)) {
      Close();
      return 0;
    }
    int status = 0;
    bool close_after = false;
    if (!ReadResponse(&status, body, &close_after)) {
      Close();
      return 0;
    }
    if (close_after) {
      Close();
    }
    return status;
  }

 private:
  bool Open() {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    buffer_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
    buffer_.clear();
  }

  bool WriteAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Fill() {
    char chunk[65536];
    for (;;) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
  }

  bool ReadResponse(int* status, std::string* body, bool* close_after) {
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (buffer_.size() > (64 << 10) || !Fill()) {
        return false;
      }
    }
    // Status line: HTTP/1.1 <code> <reason>
    const size_t space = buffer_.find(' ');
    if (space == std::string::npos || space > head_end) {
      return false;
    }
    *status = std::atoi(buffer_.c_str() + space + 1);
    size_t content_length = 0;
    std::istringstream head(buffer_.substr(0, head_end));
    std::string line;
    while (std::getline(head, line)) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) {
        continue;
      }
      std::string key = line.substr(0, colon);
      std::transform(key.begin(), key.end(), key.begin(), ::tolower);
      std::string value = line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      while (!value.empty() && (value.back() == '\r' || value.back() == ' ')) {
        value.pop_back();
      }
      if (key == "content-length") {
        content_length = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "connection") {
        std::transform(value.begin(), value.end(), value.begin(), ::tolower);
        *close_after = value.find("close") != std::string::npos;
      }
    }
    const size_t total = head_end + 4 + content_length;
    while (buffer_.size() < total) {
      if (!Fill()) {
        return false;
      }
    }
    body->assign(buffer_, head_end + 4, content_length);
    buffer_.erase(0, total);
    return true;
  }

  uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

std::string BuildRequest(const Input& input, int64_t rid) {
  std::string body = input.body;
  std::string extra;
  if (rid >= 0) {
    const std::string id = std::to_string(rid);
    body = "{\"rid\":" + id + (body == "{}" ? "" : ",") + body.substr(1);
    extra = "x-request-id: " + id + "\r\n";
  }
  return "POST /invoke/" + input.workflow +
         " HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\n" +
         extra + "content-length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

Outcome Check(int status, const std::string& body, const Input& input) {
  Outcome outcome;
  outcome.status = status;
  if (status != 200) {
    outcome.pkey_exhausted = body.find("pkey") != std::string::npos;
    return outcome;
  }
  auto parsed = asbase::Json::Parse(body);
  if (!parsed.ok()) {
    return outcome;
  }
  const asbase::Json& doc = *parsed;
  outcome.correct = doc["result"].is_string() &&
                    doc["result"].as_string() == input.expected;
  outcome.invoke_nanos = doc["end_to_end_nanos"].as_int(0);
  outcome.warm_start = doc["warm_start"].as_bool(false);
  return outcome;
}

void SleepUntil(int64_t due_nanos) {
  timespec ts;
  ts.tv_sec = due_nanos / 1'000'000'000;
  ts.tv_nsec = due_nanos % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

// Nearest-rank percentile; +inf when there is no sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

asbase::Json JsonNumber(double value) {
  // JSON has no infinity; a percentile of no samples reads -1.
  return std::isfinite(value) ? asbase::Json(value) : asbase::Json(-1.0);
}

int Usage() {
  std::fprintf(stderr,
               "usage: alloy_bench_client --port P --workload W --workflows "
               "a,b --seed S --mode warmup|open|closed [--conns C] "
               "[--rate R] [--seconds T] [--trace 0|1 --spans-out FILE --rid-base N] "
               "[--latencies-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--port") {
      options.port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--workflows") {
      std::stringstream list(value);
      std::string name;
      while (std::getline(list, name, ',')) {
        options.workflows.push_back(name);
      }
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--mode") {
      options.mode = value;
    } else if (flag == "--conns") {
      options.conns = std::atoi(value.c_str());
    } else if (flag == "--rate") {
      options.rate = std::atof(value.c_str());
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--latencies-out") {
      options.latencies_out = value;
    } else if (flag == "--rid-base") {
      options.rid_base = std::atoll(value.c_str());
    } else {
      return Usage();
    }
  }
  if (options.port == 0 || options.workflows.empty() ||
      (options.mode != "warmup" && options.mode != "open" &&
       options.mode != "closed") ||
      options.conns < 1 || options.conns > kMaxConns ||
      ((options.mode == "open" || options.mode == "closed") &&
       options.seconds <= 0) ||
      (options.mode == "open" && options.rate <= 0) ||
      (options.trace && options.spans_out.empty())) {
    return Usage();
  }
  // Sleeps wake as close to their deadline as the kernel allows.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const std::vector<Input> inputs = MakeInputs(options);
  const std::vector<std::vector<int>> lanes = MakeLanes(inputs, options.conns);
  for (const std::vector<int>& lane : lanes) {
    if (lane.empty() && options.mode != "warmup") {
      std::fprintf(stderr, "--conns %d exceeds the %zu workflows\n",
                   options.conns, options.workflows.size());
      return 2;
    }
  }

  std::vector<Sample> samples;
  const double cpu_before = CpuSeconds();
  const int64_t phase_start = asbase::MonoNanos();
  // Closed loop: correct completions per 250 ms bucket, so a capacity
  // figure can be a median that one stall does not move.
  std::vector<int64_t> ok_per_bucket;

  if (options.mode == "warmup") {
    Connection connection(options.port);
    // One request per workflow boots each tenant; the corpus workload also
    // runs every corpus once so each answer is known-good before timing.
    for (size_t i = 0; i < inputs.size(); ++i) {
      Sample sample;
      sample.input = static_cast<int>(i);
      sample.due = sample.pick = sample.send = asbase::MonoNanos();
      const std::string request = BuildRequest(inputs[i], -1);
      std::string body;
      const int status = connection.RoundTrip(request, &body);
      sample.end = asbase::MonoNanos();
      sample.request_bytes = request.size();
      sample.outcome = Check(status, body, inputs[i]);
      samples.push_back(std::move(sample));
    }
  } else if (options.mode == "open") {
    std::mt19937_64 rng(options.seed);
    std::uniform_int_distribution<int> pick(
        0, static_cast<int>(inputs.size()) - 1);
    const int64_t start = asbase::MonoNanos() + 2'000'000;
    const auto count = static_cast<size_t>(options.rate * options.seconds);
    samples.resize(count);
    for (size_t i = 0; i < count; ++i) {
      samples[i].due =
          start + static_cast<int64_t>(static_cast<double>(i) / options.rate * 1e9);
      samples[i].input = pick(rng);
      samples[i].rid =
          options.trace ? options.rid_base + static_cast<int64_t>(i) : -1;
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < options.conns; ++t) {
      threads.emplace_back([&, t] {
        Connection connection(options.port);
        std::string body;
        for (Sample& sample : samples) {
          const Input& input = inputs[static_cast<size_t>(sample.input)];
          if (input.workflow_index % lanes.size() != static_cast<size_t>(t)) {
            continue;
          }
          const std::string request = BuildRequest(input, sample.rid);
          sample.pick = asbase::MonoNanos();
          if (sample.pick < sample.due) {
            SleepUntil(sample.due);
          }
          sample.send = asbase::MonoNanos();
          const int status = connection.RoundTrip(request, &body);
          sample.end = asbase::MonoNanos();
          sample.request_bytes = request.size();
          sample.outcome = Check(status, body, input);
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  } else {
    const int64_t deadline =
        asbase::MonoNanos() + static_cast<int64_t>(options.seconds * 1e9);
    std::mutex mutex;
    std::vector<std::thread> threads;
    for (int t = 0; t < options.conns; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng(options.seed * 31 + static_cast<uint64_t>(t));
        const std::vector<int>& lane = lanes[static_cast<size_t>(t)];
        std::uniform_int_distribution<size_t> pick(0, lane.size() - 1);
        Connection connection(options.port);
        std::string body;
        std::vector<Sample> local;
        while (local.empty() || asbase::MonoNanos() < deadline) {
          Sample sample;
          sample.input = lane[pick(rng)];
          const Input& input = inputs[static_cast<size_t>(sample.input)];
          const std::string request = BuildRequest(input, -1);
          sample.due = sample.pick = sample.send = asbase::MonoNanos();
          const int status = connection.RoundTrip(request, &body);
          sample.end = asbase::MonoNanos();
          sample.request_bytes = request.size();
          sample.outcome = Check(status, body, input);
          local.push_back(std::move(sample));
        }
        std::lock_guard<std::mutex> lock(mutex);
        samples.insert(samples.end(), local.begin(), local.end());
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    ok_per_bucket.assign(
        static_cast<size_t>(options.seconds * 1e9 / kBucketNanos), 0);
    for (const Sample& sample : samples) {
      const int64_t bucket = (sample.end - phase_start) / kBucketNanos;
      if (sample.outcome.correct && bucket >= 0 &&
          bucket < static_cast<int64_t>(ok_per_bucket.size())) {
        ++ok_per_bucket[static_cast<size_t>(bucket)];
      }
    }
  }

  const double elapsed =
      static_cast<double>(asbase::MonoNanos() - phase_start) / 1e9;
  const double client_cpu = CpuSeconds() - cpu_before;

  int64_t ok = 0, wrong = 0, transport = 0, non200 = 0, pkey = 0;
  double request_bytes = 0;
  std::map<int, int64_t> statuses;
  std::vector<double> latency_us;      // correct answers only
  std::vector<double> latency_us_all;  // every sample, in schedule order
  std::vector<double> lag_us;
  for (const Sample& sample : samples) {
    const Outcome& outcome = sample.outcome;
    request_bytes += static_cast<double>(sample.request_bytes);
    if (outcome.status == 0) {
      ++transport;
    } else if (outcome.status != 200) {
      ++non200;
      ++statuses[outcome.status];
      pkey += outcome.pkey_exhausted ? 1 : 0;
    } else if (!outcome.correct) {
      ++wrong;
    } else {
      ++ok;
    }
    if (outcome.status == 200 && outcome.correct) {
      latency_us.push_back(static_cast<double>(sample.end - sample.due) / 1e3);
    }
    latency_us_all.push_back(static_cast<double>(sample.end - sample.due) / 1e3);
    lag_us.push_back(
        static_cast<double>(sample.send - std::max(sample.due, sample.pick)) /
        1e3);
  }

  asbase::Json summary;
  summary.Set("mode", options.mode);
  summary.Set("attempted", static_cast<int64_t>(samples.size()));
  summary.Set("ok", ok);
  summary.Set("failed", static_cast<int64_t>(samples.size()) - ok);
  summary.Set("wrong", wrong);
  summary.Set("transport", transport);
  summary.Set("non200", non200);
  summary.Set("pkey_exhausted", pkey);
  asbase::Json status_counts;
  for (const auto& [status, count] : statuses) {
    status_counts.Set(std::to_string(status), count);
  }
  summary.Set("statuses", status_counts);
  summary.Set("p50_us", JsonNumber(Percentile(latency_us, 0.50)));
  summary.Set("p99_us", JsonNumber(Percentile(latency_us, 0.99)));
  summary.Set("lag_p99_us", JsonNumber(Percentile(lag_us, 0.99)));
  summary.Set("elapsed_s", elapsed);
  summary.Set("client_cpu_s", client_cpu);
  asbase::JsonArray buckets(ok_per_bucket.begin(), ok_per_bucket.end());
  summary.Set("ok_per_bucket", std::move(buckets));
  summary.Set("bucket_s", static_cast<double>(kBucketNanos) / 1e9);
  summary.Set("req_bytes_mean",
              samples.empty() ? 0.0
                              : request_bytes /
                                    static_cast<double>(samples.size()));
  std::printf("%s\n", summary.Dump().c_str());

  if (!options.latencies_out.empty()) {
    std::ofstream out(options.latencies_out, std::ios::trunc);
    for (size_t i = 0; i < samples.size(); ++i) {
      out << (samples[i].outcome.correct ? latency_us_all[i] : -1.0) << ' '
          << lag_us[i] << '\n';
    }
    if (!out) {
      std::fprintf(stderr, "could not write %s\n",
                   options.latencies_out.c_str());
      return 1;
    }
  }

  if (options.trace) {
    std::ofstream out(options.spans_out, std::ios::trunc);
    for (const Sample& sample : samples) {
      asbase::Json row;
      row.Set("kind", "http");
      row.Set("rid", sample.rid);
      row.Set("workflow", inputs[static_cast<size_t>(sample.input)].workflow);
      row.Set("due", sample.due);
      row.Set("start", sample.send);
      row.Set("end", sample.end);
      row.Set("status", static_cast<int64_t>(sample.outcome.status));
      row.Set("correct", sample.outcome.correct);
      row.Set("invoke_nanos", sample.outcome.invoke_nanos);
      row.Set("warm_start", sample.outcome.warm_start);
      row.Set("req_bytes", static_cast<int64_t>(sample.request_bytes));
      out << row.Dump() << '\n';
    }
    if (!out) {
      std::fprintf(stderr, "could not write %s\n", options.spans_out.c_str());
      return 1;
    }
  }
  return 0;
}
