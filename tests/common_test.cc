// Unit + property tests for the as_common substrate.

#include <gtest/gtest.h>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <atomic>
#include <cstdlib>
#include <future>
#include <set>
#include <thread>

#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/queue.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"

namespace asbase {
namespace {

// ------------------------------------------------------------------- Env

TEST(EnvTest, MalformedIntegersFallBackToDefault) {
  const char* knob = "AS_COMMON_TEST_INT_KNOB";
  ::unsetenv(knob);
  EXPECT_EQ(EnvInt64(knob, 7), 7);
  ::setenv(knob, "42", 1);
  EXPECT_EQ(EnvInt64(knob, 7), 42);
  ::setenv(knob, "0", 1);
  EXPECT_EQ(EnvInt64(knob, 7), 0);
  // Trailing junk, words, signs, empty and overflow all mean the default:
  // "2x" must not half-apply as 2.
  for (const char* bad : {"2x", "banana", "-3", "", "99999999999999999999",
                          "+5", " 5"}) {
    ::setenv(knob, bad, 1);
    EXPECT_EQ(EnvInt64(knob, 7), 7) << "value \"" << bad << "\"";
  }
  ::unsetenv(knob);
}

TEST(EnvTest, BooleansAcceptWordsAndFallBackOnJunk) {
  const char* knob = "AS_COMMON_TEST_BOOL_KNOB";
  ::unsetenv(knob);
  EXPECT_TRUE(EnvBool(knob, true));
  EXPECT_FALSE(EnvBool(knob, false));
  for (const char* yes : {"1", "on", "TRUE", "yes"}) {
    ::setenv(knob, yes, 1);
    EXPECT_TRUE(EnvBool(knob, false)) << yes;
  }
  for (const char* no : {"0", "off", "False", "no"}) {
    ::setenv(knob, no, 1);
    EXPECT_FALSE(EnvBool(knob, true)) << no;
  }
  ::setenv(knob, "banana", 1);
  EXPECT_TRUE(EnvBool(knob, true));
  EXPECT_FALSE(EnvBool(knob, false));
  ::unsetenv(knob);
}

TEST(LogLevelTest, ParsesNamesAndSingleDigitsOnly) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("WARNING"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("Error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("2"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("0"), LogLevel::kTrace);
  EXPECT_EQ(ParseLogLevel("5"), LogLevel::kFatal);
  // The old atoi parse took "3x" as 3 and let the rest fall back silently.
  for (const char* bad : {"3x", "9", "banana", " 2", "", "-1", "warnings"}) {
    EXPECT_EQ(ParseLogLevel(bad), std::nullopt) << "value \"" << bad << "\"";
  }
}

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("no such slot 'Conference'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such slot 'Conference'");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<ErrorCode> codes = {
      InvalidArgument("").code(),    NotFound("").code(),
      AlreadyExists("").code(),      PermissionDenied("").code(),
      ResourceExhausted("").code(),  FailedPrecondition("").code(),
      OutOfRange("").code(),         Unimplemented("").code(),
      Unavailable("").code(),        DataLoss("").code(),
      Internal("").code(),
  };
  EXPECT_EQ(codes.size(), 11u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = OutOfRange("past eof");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> QuarterOf(int x) {
  AS_ASSIGN_OR_RETURN(int half, HalfOf(x));
  AS_ASSIGN_OR_RETURN(int quarter, HalfOf(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(QuarterOf(8).value(), 2);
  EXPECT_EQ(QuarterOf(6).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(QuarterOf(7).status().code(), ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Json

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_EQ(Json::Parse("true")->as_bool(), true);
  EXPECT_EQ(Json::Parse("false")->as_bool(true), false);
  EXPECT_EQ(Json::Parse("42")->as_int(), 42);
  EXPECT_EQ(Json::Parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::Parse("3.5")->as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonTest, ParsesNested) {
  auto doc = Json::Parse(R"({
    "name": "ParallelSorting",
    "functions": [
      {"name": "split", "instances": 3},
      {"name": "merge", "instances": 1}
    ],
    "input_bytes": 1048576
  })");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)["name"].as_string(), "ParallelSorting");
  EXPECT_EQ((*doc)["functions"][0]["instances"].as_int(), 3);
  EXPECT_EQ((*doc)["functions"][1]["name"].as_string(), "merge");
  EXPECT_EQ((*doc)["input_bytes"].as_int(), 1048576);
  EXPECT_TRUE((*doc)["missing"]["chain"].is_null());
  EXPECT_EQ((*doc)["missing"].as_int(9), 9);
}

TEST(JsonTest, StringEscapes) {
  auto doc = Json::Parse(R"("a\"b\\c\ndAe")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->as_string(), "a\"b\\c\ndAe");
}

TEST(JsonTest, UnicodeEscapeToUtf8) {
  auto doc = Json::Parse(R"("é中")");  // é, 中
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->as_string(), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("{'a':1}").ok());
  EXPECT_FALSE(Json::Parse("-").ok());
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

// Byte-at-a-time decoder for a document that is one JSON string (text[0] is
// '"'): the reference the run-copying parser must match, value and error
// message alike.
Result<std::string> ReferenceParseStringDocument(std::string_view text) {
  size_t pos = 1;
  auto fail = [&](const std::string& why) {
    return InvalidArgument("json parse error at offset " +
                           std::to_string(pos) + ": " + why);
  };
  std::string out;
  while (true) {
    if (pos >= text.size()) {
      return fail("unterminated string");
    }
    const char c = text[pos++];
    if (c == '"') {
      break;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return fail("unescaped control character in string");
    }
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos >= text.size()) {
      return fail("unterminated escape");
    }
    const char esc = text[pos++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (pos + 4 > text.size()) {
          return fail("truncated \\u escape");
        }
        uint32_t cp = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text[pos++];
          cp <<= 4;
          if (h >= '0' && h <= '9') {
            cp |= static_cast<uint32_t>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            cp |= static_cast<uint32_t>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            cp |= static_cast<uint32_t>(h - 'A' + 10);
          } else {
            return fail("bad hex digit in \\u escape");
          }
        }
        if (cp < 0x80) {
          out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
          out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
          out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        break;
      }
      default:
        return fail("bad escape character");
    }
  }
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                               text[pos] == '\n' || text[pos] == '\r')) {
    ++pos;
  }
  if (pos != text.size()) {
    return fail("trailing characters after JSON value");
  }
  return out;
}

// Differential: Json::Parse agrees with the reference decoder on random
// string documents — all 256 byte values, every escape, good and bad \u
// escapes, runs long enough to cross several 16-byte scan blocks,
// unterminated strings and trailing bytes.
TEST(JsonTest, StringParsingMatchesByteAtATimeReference) {
  static const char kHex[] = "0123456789abcdefABCDEFgx";
  static const char kEscapes[] = "\"\\/bfnrtu" "aq0 \x01\xff";
  Rng rng(0x5eed);
  for (int iteration = 0; iteration < 50000; ++iteration) {
    std::string text = "\"";
    const int pieces = static_cast<int>(rng.Below(12));
    for (int piece = 0; piece < pieces; ++piece) {
      switch (rng.Below(5)) {
        case 0:  // any byte
          text.push_back(static_cast<char>(rng.Below(256)));
          break;
        case 1:  // a plain run, sometimes long
          text.append(rng.Below(4) == 0 ? rng.Below(70) : rng.Below(8),
                      static_cast<char>(0x20 + rng.Below(0x5F)));
          break;
        case 2: {  // an escape, valid or not
          text.push_back('\\');
          const char esc = kEscapes[rng.Below(sizeof(kEscapes) - 1)];
          text.push_back(esc);
          if (esc == 'u') {
            const size_t digits = rng.Below(6) == 0 ? rng.Below(4) : 4;
            for (size_t d = 0; d < digits; ++d) {
              text.push_back(kHex[rng.Below(rng.Below(8) == 0 ? 24 : 22)]);
            }
          }
          break;
        }
        case 3:  // high bytes (UTF-8 lead/continuation and beyond)
          text.append(rng.Below(20), static_cast<char>(0x80 + rng.Below(128)));
          break;
        default:  // a lone backslash, possibly the last byte
          if (rng.Below(4) == 0) {
            text.push_back('\\');
          }
          break;
      }
    }
    switch (rng.Below(8)) {
      case 0:  // unterminated
        break;
      case 1:
        text += "\" \t\r\n";
        break;
      case 2:
        text += "\"x";
        break;
      default:
        text.push_back('"');
        break;
    }
    const Result<std::string> want = ReferenceParseStringDocument(text);
    const Result<Json> got = Json::Parse(text);
    ASSERT_EQ(got.ok(), want.ok()) << "iteration " << iteration;
    if (want.ok()) {
      ASSERT_TRUE(got->is_string()) << "iteration " << iteration;
      ASSERT_EQ(got->as_string(), *want) << "iteration " << iteration;
    } else {
      ASSERT_EQ(got.status().ToString(), want.status().ToString())
          << "iteration " << iteration;
    }
  }
}

TEST(JsonTest, BuilderAndDump) {
  Json doc;
  doc.Set("workflow", "pipe");
  doc.Set("stages", Json(JsonArray{Json("a"), Json("b")}));
  doc.Set("bytes", static_cast<int64_t>(4096));
  EXPECT_EQ(doc.Dump(), R"({"bytes":4096,"stages":["a","b"],"workflow":"pipe"})");
}

// Property: Parse(Dump(doc)) == doc for randomly generated documents.
Json RandomJson(Rng& rng, int depth) {
  int pick = depth >= 4 ? static_cast<int>(rng.Below(4))
                        : static_cast<int>(rng.Below(6));
  switch (pick) {
    case 0:
      return Json(nullptr);
    case 1:
      return Json(rng.OneIn(2));
    case 2:
      return Json(static_cast<int64_t>(rng.Next() >> 8) *
                  (rng.OneIn(2) ? 1 : -1));
    case 3:
      return Json(rng.Word(0, 12) + (rng.OneIn(3) ? "\"\\\n\t" : ""));
    case 4: {
      JsonArray array;
      size_t n = rng.Below(5);
      for (size_t i = 0; i < n; ++i) {
        array.push_back(RandomJson(rng, depth + 1));
      }
      return Json(std::move(array));
    }
    default: {
      JsonObject object;
      size_t n = rng.Below(5);
      for (size_t i = 0; i < n; ++i) {
        object[rng.Word(1, 8)] = RandomJson(rng, depth + 1);
      }
      return Json(std::move(object));
    }
  }
}

class JsonRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripTest, DumpThenParseIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Json doc = RandomJson(rng, 0);
    for (int indent : {0, 2}) {
      auto reparsed = Json::Parse(doc.Dump(indent));
      ASSERT_TRUE(reparsed.ok()) << doc.Dump(indent);
      EXPECT_TRUE(*reparsed == doc) << doc.Dump(indent);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Range(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, PercentilesExact) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i * 10);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.Percentile(0.5), 500);
  EXPECT_EQ(h.Percentile(0.99), 990);
  EXPECT_EQ(h.Percentile(1.0), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 505.0);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a, b;
  a.Record(1);
  b.Record(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 3);
}

TEST(HistogramTest, FormatNanosUnits) {
  EXPECT_EQ(FormatNanos(999), "999ns");
  EXPECT_EQ(FormatNanos(1'300'000), "1.30ms");
  EXPECT_EQ(FormatNanos(2'500'000'000), "2.50s");
}

TEST(HistogramTest, FormatBytesUnits) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(4096), "4KB");
  EXPECT_EQ(FormatBytes(16ull * 1024 * 1024), "16MB");
}

// ---------------------------------------------------------------- Clock

TEST(ClockTest, MonoNanosIsMonotonic) {
  int64_t a = MonoNanos();
  int64_t b = MonoNanos();
  EXPECT_LE(a, b);
}

TEST(ClockTest, SpinForWaitsApproximately) {
  int64_t start = MonoNanos();
  SpinFor(2'000'000);  // 2 ms
  EXPECT_GE(MonoNanos() - start, 2'000'000);
}

TEST(ClockTest, ScopedTimerAccumulates) {
  int64_t total = 0;
  {
    ScopedTimer timer(&total);
    SpinFor(1'000'000);
  }
  EXPECT_GE(total, 1'000'000);
}

// ---------------------------------------------------------------- Queue

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(BlockingQueueTest, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(5);
  q.Close();
  EXPECT_FALSE(q.Push(6));
  EXPECT_EQ(*q.Pop(), 5);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BoundedTryPushRespectsCapacity) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BlockingQueueTest, PopWithTimeoutExpires) {
  BlockingQueue<int> q;
  auto start = MonoNanos();
  EXPECT_FALSE(q.PopWithTimeout(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(MonoNanos() - start, 15'000'000);
}

TEST(BlockingQueueTest, CrossThreadHandoff) {
  BlockingQueue<int> q(4);
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) {
      q.Push(i);
    }
    q.Close();
  });
  int expected = 0;
  while (auto v = q.Pop()) {
    EXPECT_EQ(*v, expected++);
  }
  EXPECT_EQ(expected, 1000);
  producer.join();
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DrainIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] { count.fetch_add(1); });
  pool.Drain();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&] { count.fetch_add(1); });
  pool.Drain();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, PlacesWorkerKOnItsOwnCore) {
  const std::vector<int>& allowed = ThreadPool::AllowedCpus();
  ASSERT_FALSE(allowed.empty());
  const size_t n = allowed.size();
  const size_t first = n + 1;  // taken modulo n
  ThreadPool pool(2, first);
  pool.EnsureAtLeast(n + 2);  // later workers are placed too, and wrap
  for (size_t k = 0; k < pool.num_threads(); ++k) {
    EXPECT_EQ(pool.WorkerCpus(k), std::vector<int>{allowed[(first + k) % n]})
        << "worker " << k;
  }
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, UnplacedPoolLeavesWorkersUnpinned) {
  ThreadPool pool(2);
  // Unpinned: the creating (test) thread's full mask.
  EXPECT_EQ(pool.WorkerCpus(0), ThreadPool::AllowedCpus());
  EXPECT_EQ(pool.WorkerCpus(1), ThreadPool::AllowedCpus());
}

TEST(ThreadPoolTest, CoreOutsideAllowedSetLeavesThreadUnpinned) {
  const std::vector<int>& allowed = ThreadPool::AllowedCpus();
  ASSERT_FALSE(allowed.empty());
  auto affinity = [](std::thread& thread) {
    std::vector<int> cpus;
#ifdef __linux__
    cpu_set_t set;
    if (pthread_getaffinity_np(thread.native_handle(), sizeof(set), &set) ==
        0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          cpus.push_back(cpu);
        }
      }
    }
#endif
    return cpus;
  };
  std::promise<void> done;
  std::thread thread([future = done.get_future()] { future.wait(); });
  const std::vector<int> before = affinity(thread);
  // One core past the highest allowed one (the taskset case, where the
  // kernel would accept it and widen the mask), and one past any cpu_set_t.
  EXPECT_FALSE(ThreadPool::PinThread(thread, allowed.back() + 1));
  EXPECT_FALSE(ThreadPool::PinThread(thread, 1 << 20));
  EXPECT_EQ(affinity(thread), before);
#ifdef __linux__
  EXPECT_TRUE(ThreadPool::PinThread(thread, allowed.front()));
  EXPECT_EQ(affinity(thread), std::vector<int>{allowed.front()});
#endif
  done.set_value();
  thread.join();
}

// ---------------------------------------------------------------- SimCostModel

TEST(SimCostModelTest, ScalingApplies) {
  SimCostModel model;
  model.scale = 0.5;
  EXPECT_EQ(model.Scaled(1000), 500);
  model.scale = 1.0;
  EXPECT_EQ(model.Scaled(1000), 1000);
}

}  // namespace
}  // namespace asbase
