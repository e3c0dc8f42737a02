// Served-path benchmark: open-loop replay of generated wire requests
// through serve::Server::Submit, one load-generator thread against a
// two-worker server in the same process (README.md has the full
// rationale and how to read the output).
//
//   gred_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics on untraced servers: each
// measured pass runs on a freshly set-up pipeline, so no pass inherits
// another's caches. --trace 1 runs the traced pass (span-recording chat
// model decorator, response timings on) and prints the per-layer
// metrics. Either way the last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and the exit code is non-zero when the correctness gate fails.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cost_estimator.h"
#include "dataset/benchmark.h"
#include "dvq/parser.h"
#include "embed/caching_embedder.h"
#include "embed/embedder.h"
#include "embed/kernel.h"
#include "embed/retrieval_index.h"
#include "eval/metrics.h"
#include "gred/gred.h"
#include "llm/prompt.h"
#include "llm/sim_llm.h"
#include "loadgen.h"
#include "models/retrieval.h"
#include "serve/server.h"
#include "span_trace.h"
#include "util/json.h"
#include "viz/chart.h"

extern char** environ;

namespace {

using namespace gred;
using perfbench::Interval;
using perfbench::NowUs;
using perfbench::Percentile;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kPassRequests = 1182;  // the test split, once
constexpr std::size_t kHotSet = 64;
constexpr double kZipfExponent = 1.0;
constexpr std::uint64_t kHotSetSeed = 64;
/// rob_small's per-request row budget, which the cost gate prices every
/// translated DVQ against before execution and the executor's guard
/// enforces during it, is the estimated rows of the workload's own gold
/// DVQs at this nearest-rank percentile: the gate admits that share of
/// correct answers and turns away the costliest rest (README.md, "Row
/// budget").
constexpr double kRobBudgetPercentile = 0.90;
/// Set-ups per --trace 0 run (passes' included); setup_s is their median.
constexpr std::size_t kMinSetups = 7;
/// How long before a paced send the generator stops sleeping and spins.
constexpr double kSpinUs = 1000.0;
/// A pass whose responses have not all arrived by then fails the run.
constexpr std::chrono::seconds kPassTimeout{120};

/// One traffic mix. The paced rate is frozen here: about 30% of the
/// saturation throughput measured on a 4-CPU x86-64 VM (README.md,
/// "Paced rates").
struct Workload {
  const char* name;
  std::size_t train_size;  // embedding-library entries
  bool rob;                // test_both on renamed schemas, hardened config
  std::size_t hot_set;     // 0 = each test question once, shuffled
  double paced_rps;
  /// Saturation passes of a --trace 0 run, and as many paced ones: fixed,
  /// so every commit pools the same send orders and schedules.
  std::size_t pass_pairs;
  /// The predicted layer split the traced run checks: retrieval scans
  /// about half of translate (paper-scale library), or the LLM about 90%.
  bool retrieval_heavy;
};

constexpr Workload kWorkloads[] = {
    {"clean_paper", 6000, false, 0, 80.0, 2, true},
    {"rob_small", 250, true, 0, 120.0, 3, false},
    {"repeat_hot", 6000, false, kHotSet, 85.0, 2, true},
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "gred_perfbench: %s\n", message.c_str());
  std::exit(2);
}

double NowS() { return NowUs() / 1e6; }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Percentile P50(std::vector<double> v) {
  return perfbench::NearestRank(std::move(v), 0.5);
}
Percentile P99(std::vector<double> v) {
  return perfbench::NearestRank(std::move(v), 0.99);
}

// ---------------------------------------------------------------------------
// Run context and environment guard

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  // directory for the span file; empty = none
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Die("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
      if (!have_seed) Die("bad --seed '" + value + "'");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
      if (!have_seconds) Die("bad --seconds '" + value + "'");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Die("unknown flag '" + flag + "'");
    }
  }
  if (args.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    Die("usage: gred_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return args;
}

/// Refuses to measure anything but an optimized build, and any
/// environment knob that changes the served path.
void GuardEnvironment() {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    Die(std::string("refusing a ") + PERFBENCH_BUILD_TYPE +
        " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
#ifndef NDEBUG
  Die("refusing a build with assertions enabled (NDEBUG unset)");
#endif
  static const char* const kServedPathPrefixes[] = {
      "GRED_RETRIEVAL_", "GRED_DOT_TARGET=", "GRED_EXEC_ENGINE=",
      "GRED_SERVE_"};
  for (char** env = environ; *env != nullptr; ++env) {
    for (const char* prefix : kServedPathPrefixes) {
      if (std::strncmp(*env, prefix, std::strlen(prefix)) == 0) {
        Die(std::string("refusing to run with ") + *env +
            " set: it changes the served path");
      }
    }
  }
}

void PrintContext(const Args& args) {
  std::printf("# gred_perfbench workload=%s seed=%llu trace=%d seconds=%g\n",
              args.workload->name,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.seconds);
  std::printf("# nproc=%ld build=%s compiler=%s dot_target=%s retrieval=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER,
              embed::DotTargetName(embed::ActiveDotTarget()),
              embed::RetrievalBackendName(
                  embed::RetrievalConfig::FromEnv().backend));
  std::printf("# workers=%zu requests_per_pass=%zu paced_rps:", kWorkers,
              kPassRequests);
  for (const Workload& w : kWorkloads) {
    std::printf(" %s=%g", w.name, w.paced_rps);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Set-up: suite, pipeline, annotations, server

struct Setup {
  dataset::BenchmarkSuite suite;
  /// What the server resolves databases against: the suite itself, or
  /// for rob workloads a copy whose databases are the renamed ones.
  dataset::BenchmarkSuite rob_serving;
  const dataset::BenchmarkSuite* serving = nullptr;
  llm::SimulatedChatModel sim;
  std::unique_ptr<perfbench::TimedChatModel> timed;  // traced runs only
  std::unique_ptr<core::Gred> gred;
  std::unique_ptr<serve::Server> server;
  double suite_s = 0.0;
  double pipeline_s = 0.0;
  double annotate_s = 0.0;
  double total_s = 0.0;  // ends when the first request can be submitted
};

/// The corpus is always built from the default BenchmarkOptions seed;
/// the workload seed drives only the traffic (README.md, "Fixed content").
dataset::BenchmarkSuite BuildSuite(const Workload& w) {
  dataset::BenchmarkOptions options;
  options.train_size = w.train_size;
  options.test_size = kPassRequests;
  return dataset::BuildBenchmarkSuite(options);
}

/// The row budget a workload serves under (0 = none) and what it was
/// derived from.
struct RowBudget {
  std::uint64_t rows = 0;
  Percentile gold;           // estimated rows of the gold DVQs
  double gold_max = 0.0;
};

/// Prices every gold DVQ of the rob workload's test split on the renamed
/// databases it is asked against, and takes the kRobBudgetPercentile
/// nearest rank. A pure function of the fixed corpus and the estimator,
/// computed once per run before anything is measured.
RowBudget DeriveRowBudget(const Workload& w) {
  RowBudget budget;
  if (!w.rob) return budget;
  const dataset::BenchmarkSuite suite = BuildSuite(w);
  std::map<std::string, std::unique_ptr<analysis::CostEstimator>> estimators;
  std::vector<double> rows;
  for (const dataset::Example& ex : suite.test_both) {
    const dataset::GeneratedDatabase* db = suite.FindRobDb(ex.db_name);
    if (db == nullptr) Die("no renamed database " + ex.db_name);
    std::unique_ptr<analysis::CostEstimator>& estimator =
        estimators[db->data.name()];
    if (estimator == nullptr) {
      estimator = std::make_unique<analysis::CostEstimator>(&db->data);
    }
    Result<analysis::CostEstimate> estimate = estimator->Estimate(ex.dvq);
    if (!estimate.ok()) {
      Die("cannot price gold DVQ " + ex.id + ": " +
          estimate.status().ToString());
    }
    rows.push_back(static_cast<double>(estimate.value().rows));
  }
  budget.gold = perfbench::NearestRank(rows, kRobBudgetPercentile);
  budget.gold_max = *std::max_element(rows.begin(), rows.end());
  budget.rows = static_cast<std::uint64_t>(budget.gold.value);
  return budget;
}

std::unique_ptr<Setup> BuildSetup(const Workload& w, const RowBudget& budget,
                                  bool traced) {
  auto s = std::make_unique<Setup>();
  const double t0 = NowS();
  s->suite = BuildSuite(w);
  s->serving = &s->suite;
  if (w.rob) {
    s->rob_serving.databases = s->suite.databases_rob;
    s->serving = &s->rob_serving;
  }
  const double t1 = NowS();

  const llm::ChatModel* chat = &s->sim;
  if (traced) {
    s->timed = std::make_unique<perfbench::TimedChatModel>(&s->sim);
    chat = s->timed.get();
  }
  core::GredConfig config;
  config.enable_lint = w.rob;
  config.enable_repair = w.rob;
  models::TrainingCorpus corpus;
  corpus.train = &s->suite.train;
  corpus.databases = &s->suite.databases;
  s->gred = std::make_unique<core::Gred>(corpus, chat, config);
  const double t2 = NowS();

  Result<std::size_t> annotated =
      s->gred->PrepareAnnotations(s->serving->databases);
  if (!annotated.ok()) {
    Die("annotation failed: " + annotated.status().ToString());
  }
  const double t3 = NowS();

  serve::ServerOptions server_options;
  server_options.num_workers = kWorkers;
  server_options.queue_capacity = 2 * kPassRequests;  // holds a whole pass
  server_options.include_timings = traced;
  server_options.cost_gate = w.rob;
  server_options.default_limits.row_budget = budget.rows;
  s->server = std::make_unique<serve::Server>(s->serving, s->gred.get(),
                                              server_options);
  const double t4 = NowS();

  s->suite_s = t1 - t0;
  s->pipeline_s = t2 - t1;
  s->annotate_s = t3 - t2;
  s->total_s = t4 - t0;
  if (traced) s->timed->TakeCalls();  // drop the annotation calls
  return s;
}

// ---------------------------------------------------------------------------
// The request stream

struct RequestSpec {
  const dataset::Example* example = nullptr;
  std::string line;
};

/// The fixed request list; a request's wire id is its index here.
std::vector<RequestSpec> BuildRequests(const Workload& w,
                                       const dataset::BenchmarkSuite& suite) {
  const std::vector<dataset::Example>& tests =
      w.rob ? suite.test_both : suite.test_clean;
  if (tests.size() != kPassRequests) Die("unexpected test split size");
  // Which questions are asked, and how often, is fixed: the whole split
  // once, or one Zipf draw from a hot set chosen once. The seed only
  // orders them (SendOrder), so every seed carries the same work and
  // the same answers.
  std::vector<std::size_t> asked(tests.size());
  std::iota(asked.begin(), asked.end(), std::size_t{0});
  if (w.hot_set > 0) {
    asked = perfbench::ZipfHotDraw(tests.size(), w.hot_set, kPassRequests,
                                   kZipfExponent, kHotSetSeed);
  }
  std::vector<RequestSpec> requests;
  requests.reserve(asked.size());
  for (std::size_t i = 0; i < asked.size(); ++i) {
    const dataset::Example& ex = tests[asked[i]];
    json::Value line = json::Value::Object();
    line.Set("id", json::Value::Int(static_cast<std::int64_t>(i)));
    line.Set("nlq", json::Value::Str(ex.nlq));
    line.Set("db", json::Value::Str(ex.db_name));
    line.Set("chart", json::Value::Bool(w.rob));
    requests.push_back(RequestSpec{&ex, line.Dump()});
  }
  return requests;
}

// ---------------------------------------------------------------------------
// One pass: every request submitted once, open loop

struct Outcome {
  std::string response;
  double done_us = 0.0;
  std::uint32_t thread = 0;
};

struct Pass {
  std::vector<double> scheduled_us;
  std::vector<double> sent_us;
  std::vector<Outcome> outcomes;
  std::unique_ptr<std::atomic<std::uint32_t>[]> callbacks;
  double start_us = 0.0;
  double end_us = 0.0;
  double cpu_s = 0.0;
};

/// Pass `k` of a run sends the requests in order stream 2k+1 of the seed
/// and, when paced, at the arrival times of stream 2k+2: each pass
/// pools a different ordering, so one unlucky run of slow requests does
/// not set a run's tail.
std::vector<std::size_t> SendOrder(std::uint64_t seed, std::size_t k,
                                   std::size_t n) {
  return perfbench::ShuffledOrder(n, perfbench::StreamSeed(seed, 2 * k + 1));
}
std::vector<double> PacedSchedule(std::uint64_t seed, std::size_t k,
                                  std::size_t n, double rate) {
  return perfbench::PoissonSchedule(n, rate,
                                    perfbench::StreamSeed(seed, 2 * k + 2));
}

/// Sends requests[order[i]] `offsets_s[i]` after the pass start (no
/// offsets = all at once, the saturation phase) and waits for every
/// response. Per-request fields of the Pass are indexed by request id.
/// The generator's own lateness is recorded as sent - scheduled.
std::unique_ptr<Pass> RunPass(serve::Server* server,
                              const std::vector<RequestSpec>& requests,
                              const std::vector<std::size_t>& order,
                              const std::vector<double>& offsets_s) {
  const std::size_t n = requests.size();
  auto pass = std::make_unique<Pass>();
  pass->scheduled_us.resize(n);
  pass->sent_us.resize(n);
  pass->outcomes.resize(n);
  pass->callbacks = std::make_unique<std::atomic<std::uint32_t>[]>(n);
  std::mutex mu;
  std::condition_variable all_done;
  std::size_t done = 0;  // guarded by mu

  const double cpu0 = CpuSeconds();
  pass->start_us = NowUs();
  for (std::size_t sent = 0; sent < n; ++sent) {
    const std::size_t i = order[sent];
    const double due =
        pass->start_us + (offsets_s.empty() ? 0.0 : offsets_s[sent] * 1e6);
    // Sleep to within kSpinUs of the send time, then spin: a sleeping
    // generator wakes late on a loaded VM, and that lateness would be
    // charged to the server, while spinning the whole gap would keep a
    // third CPU busy beside the two workers.
    if (due - NowUs() > 2 * kSpinUs) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>(due - NowUs() - kSpinUs)));
    }
    while (NowUs() < due) {
    }
    pass->scheduled_us[i] = due;
    pass->sent_us[i] = NowUs();
    server->Submit(requests[i].line, [&, i](const std::string& response) {
      const double now = NowUs();
      if (pass->callbacks[i].fetch_add(1) != 0) return;  // the gate counts it
      Outcome& out = pass->outcomes[i];
      out.done_us = now;
      out.thread = perfbench::ThreadKey();
      out.response = response;
      std::lock_guard<std::mutex> lock(mu);
      if (++done == n) all_done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  if (!all_done.wait_for(lock, kPassTimeout, [&] { return done == n; })) {
    // Callbacks still owed reference this frame: end the process here.
    std::printf("# GATE FAIL: %zu of %zu responses missing after %lld s\n",
                n - done, n, static_cast<long long>(kPassTimeout.count()));
    std::fflush(stdout);
    std::_Exit(1);
  }
  pass->end_us = NowUs();
  for (const Outcome& out : pass->outcomes) {
    pass->end_us = std::max(pass->end_us, out.done_us);
  }
  pass->cpu_s = CpuSeconds() - cpu0;
  return pass;
}

double Throughput(const Pass& pass) {
  return static_cast<double>(pass.outcomes.size()) /
         ((pass.end_us - pass.start_us) / 1e6);
}

std::vector<double> LatenciesMs(const Pass& pass) {
  std::vector<double> ms(pass.outcomes.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    ms[i] = (pass.outcomes[i].done_us - pass.scheduled_us[i]) / 1e3;
  }
  return ms;
}

std::vector<double> LagsMs(const Pass& pass) {
  std::vector<double> ms(pass.sent_us.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    ms[i] = (pass.sent_us[i] - pass.scheduled_us[i]) / 1e3;
  }
  return ms;
}

// ---------------------------------------------------------------------------
// Correctness gate

/// Removes the `"timings_us":{...}` member (the server writes it last,
/// flat) so traced and untraced transcripts compare byte for byte.
std::string StripTimings(const std::string& response) {
  const std::string key = ",\"timings_us\":{";
  const std::size_t at = response.find(key);
  if (at == std::string::npos) return response;
  const std::size_t close = response.find('}', at + key.size());
  if (close == std::string::npos) return response;
  return response.substr(0, at) + response.substr(close + 1);
}

std::uint64_t Fnv1a(const std::string& bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GateResult {
  std::size_t malformed = 0;   // missing, duplicated, unparseable or wrong id
  std::size_t overloaded = 0;  // admission-control rejections
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<std::string> problems;
};

/// Checks one pass: exactly one well-formed response per line carrying
/// its id, no overload rejections; folds the id-ordered, timing-free
/// transcript into a digest.
GateResult CheckPass(const Pass& pass) {
  GateResult gate;
  for (std::size_t i = 0; i < pass.outcomes.size(); ++i) {
    const std::uint32_t calls = pass.callbacks[i].load();
    const std::string& response = pass.outcomes[i].response;
    const json::ParseResult parsed = json::Parse(response);
    const json::Value* id = parsed.ok() ? parsed.value().Find("id") : nullptr;
    const json::Value* ok = parsed.ok() ? parsed.value().Find("ok") : nullptr;
    if (calls != 1 || id == nullptr || ok == nullptr ||
        id->kind() != json::Value::Kind::kNumber ||
        id->number_value() != static_cast<double>(i) ||
        ok->kind() != json::Value::Kind::kBool) {
      ++gate.malformed;
      continue;
    }
    const json::Value* error = parsed.value().Find("error");
    if (error != nullptr && error->string_value() == "overloaded") {
      ++gate.overloaded;
    }
    gate.digest = Fnv1a(StripTimings(response) + "\n", gate.digest);
  }
  if (gate.malformed > 0) {
    gate.problems.push_back(std::to_string(gate.malformed) +
                            " lines without exactly one well-formed response");
  }
  if (gate.overloaded > 0) {
    gate.problems.push_back(std::to_string(gate.overloaded) +
                            " overload rejections");
  }
  return gate;
}

struct Accuracy {
  double exec_acc = 0.0;
  double ok_rate = 0.0;
};

/// exec_acc from the DVQs the server returned (eval::ExecutionMatch
/// against the gold query on the database the request named); ok_rate
/// is the share of responses with "ok":true.
Accuracy Score(const Pass& pass, const std::vector<RequestSpec>& requests,
               const dataset::BenchmarkSuite& serving) {
  std::size_t matches = 0, oks = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const json::ParseResult parsed = json::Parse(pass.outcomes[i].response);
    if (!parsed.ok()) continue;
    const json::Value* ok = parsed.value().Find("ok");
    if (ok != nullptr && ok->bool_value()) ++oks;
    const json::Value* text = parsed.value().Find("dvq");
    const dataset::GeneratedDatabase* db =
        serving.FindCleanDb(requests[i].example->db_name);
    if (text == nullptr || db == nullptr) continue;
    Result<dvq::DVQ> predicted = dvq::Parse(text->string_value());
    if (predicted.ok() &&
        eval::ExecutionMatch(predicted.value(), requests[i].example->dvq,
                             db->data)) {
      ++matches;
    }
  }
  const double n = static_cast<double>(requests.size());
  return Accuracy{static_cast<double>(matches) / n,
                  static_cast<double>(oks) / n};
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  json::Value values = json::Value::Object();
  for (const Metric& m : metrics) {
    json::Value entry = json::Value::Object();
    entry.Set("value", json::Value::Number(m.value));
    entry.Set("unit", json::Value::Str(m.unit));
    values.Set(m.name, std::move(entry));
  }
  json::Value result = json::Value::Object();
  result.Set("correct", json::Value::Bool(correct));
  result.Set("attempted",
             json::Value::Int(static_cast<std::int64_t>(attempted)));
  result.Set("failed", json::Value::Int(static_cast<std::int64_t>(failed)));
  result.Set("metrics", std::move(values));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
}

void PrintPercentile(const char* what, const Percentile& p, const char* unit) {
  std::printf("# %s = %.4f %s (n=%zu, %zu beyond)\n", what, p.value, unit,
              p.samples, p.beyond);
}

/// The gate over a set of passes of one workload: each pass checks on
/// its own, the server drained balanced, and every transcript digest is
/// the same.
struct RunGate {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<std::uint64_t> digest;

  void AddPass(const char* phase, const Pass& pass) {
    GateResult gate = CheckPass(pass);
    attempted += pass.outcomes.size();
    failed += gate.malformed + gate.overloaded;
    for (const std::string& problem : gate.problems) {
      std::printf("# GATE FAIL [%s]: %s\n", phase, problem.c_str());
      correct = false;
    }
    std::printf("# transcript_digest[%s] = %016llx\n", phase,
                static_cast<unsigned long long>(gate.digest));
    if (digest.has_value() && *digest != gate.digest) {
      std::printf("# GATE FAIL [%s]: transcript differs from the first pass\n",
                  phase);
      correct = false;
    }
    if (!digest.has_value()) digest = gate.digest;
  }

  void AddDrain(const char* phase, serve::Server* server) {
    server->Shutdown();
    if (!server->stats().Balanced()) {
      std::printf("# GATE FAIL [%s]: server counters unbalanced\n", phase);
      correct = false;
    }
  }
};

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics

int RunEndToEnd(const Args& args, const RowBudget& budget) {
  const Workload& w = *args.workload;
  RunGate gate;
  std::vector<double> setups, rps, cpu_ms, latency_ms, lag_ms;
  Accuracy accuracy;
  // Saturation and paced passes alternate, w.pass_pairs of each, however
  // fast the host is, so every commit pools the same send orders and
  // schedules (at two paced passes, about 23 samples beyond p99). Every
  // pass runs on a freshly set-up pipeline, so none starts with
  // another's caches warm. Throughput and CPU are medians over the
  // saturation passes; the latency percentiles pool every paced pass.
  // Each set-up starts after the previous one's memory went back to the
  // OS, so peak_rss_mb is one pass's footprint, not one stacked on the
  // last pass's free lists.
  auto fresh_setup = [&w, &budget] {
    malloc_trim(0);
    return BuildSetup(w, budget, /*traced=*/false);
  };
  const double run_start = NowS();
  for (std::size_t k = 0; k < 2 * w.pass_pairs; ++k) {
    std::unique_ptr<Setup> setup = fresh_setup();
    setups.push_back(setup->total_s);
    const std::vector<RequestSpec> requests = BuildRequests(w, setup->suite);
    const std::size_t n = requests.size();
    const bool paced = k % 2 == 1;
    std::unique_ptr<Pass> pass = RunPass(
        setup->server.get(), requests, SendOrder(args.seed, k, n),
        paced ? PacedSchedule(args.seed, k, n, w.paced_rps)
              : std::vector<double>{});
    const char* phase = paced ? "paced" : "saturation";
    gate.AddPass(phase, *pass);
    gate.AddDrain(phase, setup->server.get());
    if (k == 0) {
      accuracy = Score(*pass, requests, *setup->serving);
      const serve::ServerStats served = setup->server->stats();
      std::printf("# failed %llu of %zu: rejected_cost %llu, "
                  "resource_exhausted %llu, other data-path %llu\n",
                  static_cast<unsigned long long>(served.failed), n,
                  static_cast<unsigned long long>(served.rejected_cost),
                  static_cast<unsigned long long>(served.resource_exhausted),
                  static_cast<unsigned long long>(served.failed -
                                                  served.rejected_cost -
                                                  served.resource_exhausted));
    }
    if (paced) {
      std::printf("# paced pass %zu: p50 %.4f ms, p99 %.4f ms\n", k / 2,
                  P50(LatenciesMs(*pass)).value, P99(LatenciesMs(*pass)).value);
      for (double ms : LatenciesMs(*pass)) latency_ms.push_back(ms);
      for (double ms : LagsMs(*pass)) lag_ms.push_back(ms);
    } else {
      rps.push_back(Throughput(*pass));
      cpu_ms.push_back(pass->cpu_s * 1e3 /
                       static_cast<double>(pass->outcomes.size()));
    }
  }
  // More set-ups than passes, so setup_s is a median of several.
  while (setups.size() < kMinSetups) {
    setups.push_back(fresh_setup()->total_s);
  }
  const Percentile p50 = P50(latency_ms);
  const Percentile p90 = perfbench::NearestRank(latency_ms, 0.90);
  const Percentile p99 = P99(latency_ms);
  const Percentile lag = P99(lag_ms);
  const double run_s = NowS() - run_start;
  std::printf("# %zu set-ups, %zu saturation and %zu paced passes in %.2f s\n",
              setups.size(), rps.size(), latency_ms.size() / kPassRequests,
              run_s);
  // The pass count is fixed; --seconds only says how long a run is
  // expected to take.
  if (run_s > args.seconds) {
    std::printf("# NOTE: the run took %.2f s, more than --seconds %g\n", run_s,
                args.seconds);
  }
  PrintPercentile("paced latency p50", p50, "ms");
  PrintPercentile("paced latency p90", p90, "ms");
  // Reported, not gated: on a shared VM one host stall of a few hundred
  // ms sets it (README.md, "Why the gated tail is p90").
  PrintPercentile("paced latency p99", p99, "ms");
  PrintPercentile("loadgen lag p99", lag, "ms");
  if (lag.value > p50.value) {
    std::printf("# WARNING: generator fell behind (lag p99 %.3f ms > latency "
                "p50 %.3f ms); the latencies are not trustworthy\n",
                lag.value, p50.value);
  }

  const std::vector<Metric> metrics = {
      {"setup_s", P50(setups).value, "s"},
      {"throughput_rps", P50(rps).value, "req/s"},
      {"latency_p50_ms", p50.value, "ms"},
      {"latency_p90_ms", p90.value, "ms"},
      {"cpu_ms_per_req", P50(cpu_ms).value, "ms"},
      {"exec_acc", accuracy.exec_acc, "ratio"},
      {"ok_rate", accuracy.ok_rate, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  PrintResult(gate.correct, gate.attempted, gate.failed, metrics);
  return gate.correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics

/// The response's timings_us members, in µs.
struct Timings {
  double translate = 0.0, execute = 0.0, total = 0.0;
};

Timings ParseTimings(const std::string& response) {
  Timings t;
  const json::ParseResult parsed = json::Parse(response);
  const json::Value* timings =
      parsed.ok() ? parsed.value().Find("timings_us") : nullptr;
  if (timings == nullptr) return t;
  auto field = [&](const char* key) {
    const json::Value* v = timings->Find(key);
    return v == nullptr ? 0.0 : v->number_value();
  };
  t.translate = field("translate_us");
  t.execute = field("execute_us");
  t.total = field("total_us");
  return t;
}

/// Times `fn` once, in µs.
template <typename Fn>
double TimeUs(Fn&& fn) {
  const double start = NowUs();
  fn();
  return NowUs() - start;
}

/// Per-layer metrics as they are computed, in the order they print.
class MetricList {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// A percentile, with its sample count on a `#` line.
  void Add(const std::string& name, const Percentile& p, std::string unit) {
    std::printf("# %s n=%zu beyond=%zu\n", name.c_str(), p.samples, p.beyond);
    Add(name, p.value, std::move(unit));
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};


/// Replays single layers serially on what the traced pass produced: the
/// request NLQ and generator DVQ through retrieval indexes built as Gred
/// builds them, dvq::Parse on the captured completions, and analysis,
/// chart and Vega-Lite on the returned DVQs. Returns the total time of
/// the replayed TopK scans, in µs.
double ReplayLayers(const Setup& setup,
                    const std::vector<RequestSpec>& requests, const Pass& pass,
                    const std::vector<perfbench::LlmCall>& calls,
                    const std::vector<const perfbench::LlmCall*>& gen_call,
                    MetricList* out) {
  const std::size_t n = requests.size();
  embed::SemanticHashEmbedder raw_embedder;
  embed::CachingEmbedder embedder(
      std::make_unique<embed::SemanticHashEmbedder>());
  models::ExampleIndex nlq_index(&setup.suite.train, &embedder);
  models::DvqIndex dvq_index(&setup.suite.train, &embedder);
  const std::size_t k = setup.gred->config().k;
  std::vector<double> embed_us, nlq_topk_us, dvq_topk_us, parse_us;
  std::vector<double> lint_us, estimate_us, chart_us, vegalite_us;
  double topk_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& nlq = requests[i].example->nlq;
    embed_us.push_back(TimeUs([&] { (void)raw_embedder.Embed(nlq); }));
    (void)embedder.Embed(nlq);  // the TopK below times the scan, not the embed
    nlq_topk_us.push_back(TimeUs([&] { (void)nlq_index.TopK(nlq, k); }));
    topk_total += nlq_topk_us.back();
    if (gen_call[i] == nullptr) continue;
    const std::string gen = llm::ExtractDvqText(gen_call[i]->completion);
    (void)embedder.Embed(gen);
    dvq_topk_us.push_back(TimeUs([&] { (void)dvq_index.TopK(gen, k); }));
    topk_total += dvq_topk_us.back();
  }
  for (const perfbench::LlmCall& call : calls) {
    const std::string text = llm::ExtractDvqText(call.completion);
    if (text.empty()) continue;
    parse_us.push_back(TimeUs([&] { (void)dvq::Parse(text); }));
  }
  std::map<std::string, std::unique_ptr<analysis::CostEstimator>> estimators;
  std::size_t vegalite_served = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const json::ParseResult parsed = json::Parse(pass.outcomes[i].response);
    const json::Value* text =
        parsed.ok() ? parsed.value().Find("dvq") : nullptr;
    const dataset::GeneratedDatabase* db =
        setup.serving->FindCleanDb(requests[i].example->db_name);
    if (text == nullptr || db == nullptr) continue;
    Result<dvq::DVQ> returned = dvq::Parse(text->string_value());
    if (!returned.ok()) continue;
    const analysis::DvqAnalyzer analyzer(&db->data.db_schema());
    lint_us.push_back(
        TimeUs([&] { (void)analyzer.Analyze(returned.value()); }));
    // One estimator per database, as the server's cost gate keeps them.
    std::unique_ptr<analysis::CostEstimator>& estimator =
        estimators[db->data.name()];
    if (estimator == nullptr) {
      estimator = std::make_unique<analysis::CostEstimator>(&db->data);
    }
    estimate_us.push_back(
        TimeUs([&] { (void)estimator->Estimate(returned.value()); }));
    std::optional<Result<viz::Chart>> chart;
    chart_us.push_back(TimeUs(
        [&] { chart.emplace(viz::BuildChart(returned.value(), db->data)); }));
    if (!chart->ok()) continue;
    vegalite_us.push_back(
        TimeUs([&] { (void)viz::ToVegaLite(chart->value()); }));
    if (parsed.value().Find("chart") != nullptr) ++vegalite_served;
  }
  out->Add("embed.embed_us.p50", P50(embed_us), "us");
  out->Add("embed.nlq_topk_us.p50", P50(nlq_topk_us), "us");
  out->Add("embed.dvq_topk_us.p50", P50(dvq_topk_us), "us");
  out->Add("dvq.parse_us.p50", P50(parse_us), "us");
  out->Add("analysis.lint_us.p50", P50(lint_us), "us");
  out->Add("analysis.estimate_us.p50", P50(estimate_us), "us");
  out->Add("exec.chart_us.p50", P50(chart_us), "us");
  out->Add("viz.vegalite_us.p50", P50(vegalite_us), "us");
  out->Add("viz.vegalite_served", static_cast<double>(vegalite_served),
           "count");
  return topk_total;
}

int RunTraced(const Args& args, const RowBudget& budget) {
  const Workload& w = *args.workload;
  RunGate gate;
  MetricList report;

  // Tracing overhead: untraced vs traced saturation throughput, each on
  // a fresh pipeline.
  double base_rps = 0.0, traced_rps = 0.0;
  for (bool traced : {false, true}) {
    std::unique_ptr<Setup> setup = BuildSetup(w, budget, traced);
    const std::vector<RequestSpec> requests = BuildRequests(w, setup->suite);
    std::unique_ptr<Pass> pass = RunPass(
        setup->server.get(), requests,
        SendOrder(args.seed, 0, requests.size()), {});
    const char* phase = traced ? "traced-saturation" : "saturation";
    gate.AddPass(phase, *pass);
    gate.AddDrain(phase, setup->server.get());
    (traced ? traced_rps : base_rps) = Throughput(*pass);
  }

  // The traced paced pass.
  std::unique_ptr<Setup> setup = BuildSetup(w, budget, /*traced=*/true);
  const std::vector<RequestSpec> requests = BuildRequests(w, setup->suite);
  const core::Gred::StageStats stages0 = setup->gred->stage_stats();
  const embed::CachingEmbedder::Stats cache0 = setup->gred->embed_cache_stats();
  // Pass 1's order and schedule: those of the first paced pass of an
  // end-to-end run with the same seed.
  std::unique_ptr<Pass> pass = RunPass(
      setup->server.get(), requests, SendOrder(args.seed, 1, requests.size()),
      PacedSchedule(args.seed, 1, requests.size(), w.paced_rps));
  const core::Gred::StageStats stages1 = setup->gred->stage_stats();
  const embed::CachingEmbedder::Stats cache1 = setup->gred->embed_cache_stats();
  gate.AddPass("traced-paced", *pass);
  gate.AddDrain("traced-paced", setup->server.get());
  const serve::ServerStats served = setup->server->stats();
  std::vector<perfbench::LlmCall> calls = setup->timed->TakeCalls();

  // Attribution: a worker runs one request at a time, so an LLM call
  // belongs to the request whose callback is the first on the call's
  // thread to follow the call's end.
  const std::size_t n = requests.size();
  std::vector<Timings> timings(n);
  std::map<std::uint32_t, std::vector<std::size_t>> by_thread;  // by done time
  for (std::size_t i = 0; i < n; ++i) {
    timings[i] = ParseTimings(pass->outcomes[i].response);
    by_thread[pass->outcomes[i].thread].push_back(i);
  }
  for (auto& [thread, served_here] : by_thread) {
    std::sort(served_here.begin(), served_here.end(),
              [&](std::size_t a, std::size_t b) {
                return pass->outcomes[a].done_us < pass->outcomes[b].done_us;
              });
  }
  std::vector<std::vector<const perfbench::LlmCall*>> llm_of(n);
  std::size_t unattributed = 0;
  for (const perfbench::LlmCall& call : calls) {
    const std::vector<std::size_t>& served_here = by_thread[call.span.thread];
    const auto owner = std::lower_bound(
        served_here.begin(), served_here.end(), call.span.end_us,
        [&](std::size_t i, double t) { return pass->outcomes[i].done_us < t; });
    if (owner == served_here.end()) {
      ++unattributed;
    } else {
      llm_of[*owner].push_back(&call);
    }
  }
  if (unattributed > 0) {
    std::printf("# GATE FAIL [traced-paced]: %zu LLM calls not attributed to "
                "a request\n", unattributed);
    gate.correct = false;
  }

  // Spans: one root per request (scheduled send to callback), its queue
  // wait and service, translate and execute inside the service, the
  // request's LLM calls inside translate. Service and translate bounds
  // come from the response's whole-µs timings, anchored at the callback
  // and pulled back to the first LLM call where that starts earlier.
  std::vector<perfbench::Span> spans;
  std::vector<Interval> translate_at(n);
  std::vector<std::vector<Interval>> llm_at(n);
  std::vector<const perfbench::LlmCall*> gen_call(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& out = pass->outcomes[i];
    double service_start = out.done_us - timings[i].total;
    double llm_end = service_start;
    for (const perfbench::LlmCall* call : llm_of[i]) {
      service_start = std::min(service_start, call->span.start_us);
      llm_end = std::max(llm_end, call->span.end_us);
      llm_at[i].push_back({call->span.start_us, call->span.end_us});
      if (call->stage == perfbench::LlmStage::kGenerate) gen_call[i] = call;
    }
    translate_at[i] = {service_start,
                       std::max(service_start + timings[i].translate, llm_end)};
    const auto id = static_cast<std::int64_t>(i);
    const auto root = static_cast<std::int64_t>(spans.size());
    spans.push_back({"request", pass->scheduled_us[i], out.done_us, id, -1, 0});
    spans.push_back(
        {"serve.queue", pass->sent_us[i], service_start, id, root, 0});
    const auto service = static_cast<std::int64_t>(spans.size());
    spans.push_back({"serve.process", service_start, out.done_us, id, root,
                     out.thread});
    const auto translate = static_cast<std::int64_t>(spans.size());
    spans.push_back({"gred.translate", translate_at[i].start,
                     translate_at[i].end, id, service, out.thread});
    spans.push_back({"exec.chart", translate_at[i].end,
                     translate_at[i].end + timings[i].execute, id, service,
                     out.thread});
    for (const perfbench::LlmCall* call : llm_of[i]) {
      perfbench::Span span = call->span;
      span.request = id;
      span.parent = translate;
      spans.push_back(span);
    }
  }

  // serve
  std::vector<double> queue_ms, service_us, overhead_us, translate_us;
  std::vector<double> self_us;
  double llm_covered = 0.0, translate_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& out = pass->outcomes[i];
    queue_ms.push_back(
        (out.done_us - pass->sent_us[i] - timings[i].total) / 1e3);
    service_us.push_back(timings[i].total);
    overhead_us.push_back(timings[i].total - timings[i].translate -
                          timings[i].execute);
    translate_us.push_back(timings[i].translate);
    const double covered = perfbench::CoveredLength(translate_at[i], llm_at[i]);
    self_us.push_back(perfbench::SelfTime(translate_at[i], llm_at[i]));
    llm_covered += covered;
    translate_total += translate_at[i].end - translate_at[i].start;
  }
  report.Add("serve.queue_wait_ms.p50", P50(queue_ms), "ms");
  report.Add("serve.queue_wait_ms.p99", P99(queue_ms), "ms");
  report.Add("serve.service_us.p50", P50(service_us), "us");
  report.Add("serve.service_us.p99", P99(service_us), "us");
  // The mean, not a percentile: the server reports whole µs, and this
  // is a difference of three of them around a few tens of µs.
  double overhead_sum = 0.0;
  for (double v : overhead_us) overhead_sum += v;
  report.Add("serve.overhead_us.mean", overhead_sum / static_cast<double>(n),
             "us");
  report.Add("serve.failed", static_cast<double>(served.failed), "count");
  report.Add("serve.rejected_cost", static_cast<double>(served.rejected_cost),
             "count");
  report.Add("serve.resource_exhausted",
             static_cast<double>(served.resource_exhausted), "count");

  // gred
  const double calls_n =
      static_cast<double>(stages1.translate_calls - stages0.translate_calls);
  report.Add("gred.translate_us.p50", P50(translate_us), "us");
  report.Add("gred.translate_us.p99", P99(translate_us), "us");
  auto per_call_us = [&](double before_s, double after_s) {
    return (after_s - before_s) * 1e6 / calls_n;
  };
  auto both_stages = [](std::uint64_t retune, std::uint64_t debug) {
    return static_cast<double>(retune + debug);
  };
  report.Add("gred.gen_stage_us",
             per_call_us(stages0.retrieval_seconds, stages1.retrieval_seconds),
             "us");
  report.Add("gred.retune_stage_us",
             per_call_us(stages0.retune_seconds, stages1.retune_seconds), "us");
  report.Add("gred.debug_stage_us",
             per_call_us(stages0.debug_seconds, stages1.debug_seconds), "us");
  report.Add("gred.self_us.p50", P50(self_us), "us");
  report.Add("gred.degraded",
             both_stages(stages1.retune_degraded, stages1.debug_degraded) -
                 both_stages(stages0.retune_degraded, stages0.debug_degraded),
             "count");
  report.Add(
      "gred.lint_trips",
      both_stages(stages1.retune_lint_trips, stages1.debug_lint_trips) -
          both_stages(stages0.retune_lint_trips, stages0.debug_lint_trips),
      "count");
  report.Add("gred.repairs",
             both_stages(stages1.retune_repairs, stages1.debug_repairs) -
                 both_stages(stages0.retune_repairs, stages0.debug_repairs),
             "count");
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double lookups =
      hits + static_cast<double>(cache1.misses - cache0.misses);
  report.Add("gred.embed_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
             "ratio");
  report.Add("gred.embed_cache_hits", hits, "count");
  report.Add("gred.embed_cache_lookups", lookups, "count");

  // llm
  std::map<perfbench::LlmStage, std::vector<double>> stage_us;
  double prompt_bytes = 0.0;
  for (const perfbench::LlmCall& call : calls) {
    stage_us[call.stage].push_back(call.span.end_us - call.span.start_us);
    prompt_bytes += static_cast<double>(call.prompt_bytes);
  }
  const double requests_n = static_cast<double>(n);
  report.Add("llm.calls_per_req",
             static_cast<double>(calls.size()) / requests_n, "count");
  report.Add("llm.prompt_kb_per_req", prompt_bytes / 1024.0 / requests_n, "KB");
  using perfbench::LlmStage;
  report.Add("llm.generate_us.p50", P50(stage_us[LlmStage::kGenerate]), "us");
  report.Add("llm.retune_us.p50", P50(stage_us[LlmStage::kRetune]), "us");
  report.Add("llm.debug_us.p50", P50(stage_us[LlmStage::kDebug]), "us");
  report.Add("llm.share", llm_covered / translate_total, "ratio");

  const double topk_total =
      ReplayLayers(*setup, requests, *pass, calls, gen_call, &report);
  report.Add("embed.topk_share", topk_total / translate_total, "ratio");

  // setup and load generator
  report.Add("setup.suite_s", setup->suite_s, "s");
  report.Add("setup.pipeline_s", setup->pipeline_s, "s");
  report.Add("setup.annotate_s", setup->annotate_s, "s");
  const Percentile lag = P99(LagsMs(*pass));
  report.Add("loadgen.lag_ms.p99", lag, "ms");
  const Percentile p50 = P50(LatenciesMs(*pass));
  report.Add("request.latency_p99_ms", P99(LatenciesMs(*pass)), "ms");
  if (lag.value > p50.value) {
    std::printf("# WARNING: generator fell behind (lag p99 %.3f ms > traced "
                "latency p50 %.3f ms)\n", lag.value, p50.value);
  }
  report.Add("trace.overhead", base_rps / traced_rps, "ratio");
  report.Add("trace.base_rps", base_rps, "req/s");

  // Layer separation check (README.md, "Predicted layer shares").
  const double topk_share = topk_total / translate_total;
  const double llm_share = llm_covered / translate_total;
  std::printf(
      "# shares of translate: embed.topk=%.3f llm=%.3f gred.self=%.3f\n",
      topk_share, llm_share, 1.0 - llm_share);
  const bool as_predicted = w.retrieval_heavy
                                ? topk_share >= 0.3 && llm_share <= 0.6
                                : topk_share <= 0.1 && llm_share >= 0.75;
  std::printf("# layer split %s the prediction (%s)\n",
              as_predicted ? "matches" : "does NOT match",
              w.retrieval_heavy ? "TopK scans about half of translate"
                                : "LLM about 90%, TopK about 3% of translate");

  if (!args.trace_out.empty()) {
    const std::filesystem::path dir = args.trace_out;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = (dir / (std::string(w.name) + "-" +
                                     std::to_string(args.seed) + ".json"))
                                 .string();
    if (perfbench::WriteChromeTrace(path, spans)) {
      std::printf("# wrote %zu spans to %s\n", spans.size(), path.c_str());
    }
  }
  PrintResult(gate.correct, gate.attempted, gate.failed, report.metrics());
  return gate.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  GuardEnvironment();
  PrintContext(args);
  const RowBudget budget = DeriveRowBudget(*args.workload);
  if (budget.rows > 0) {
    std::printf("# row_budget=%llu: p%.0f of the estimated rows of %zu gold "
                "DVQs (%zu beyond it, max %.0f)\n",
                static_cast<unsigned long long>(budget.rows),
                kRobBudgetPercentile * 100, budget.gold.samples,
                budget.gold.beyond, budget.gold_max);
  }
  return args.trace ? RunTraced(args, budget) : RunEndToEnd(args, budget);
}
