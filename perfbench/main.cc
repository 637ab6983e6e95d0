// End-to-end benchmark of the AdaEdge engines.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run makes its inputs from the seed, sets up (model training, engine
// construction, thread start and warm-up), runs one checked round in which
// every output is decoded and compared with its input, and then repeats the
// same round on fresh engines for --seconds, setting up again after every
// round. Every repeated round must reproduce the checked round's decisions
// and bytes exactly. --trace 0 prints the end-to-end metrics; --trace 1
// alternates plain rounds with rounds whose arms and model are wrapped in
// timing decorators and prints the per-layer metrics. The last line of
// standard output is one JSON object; README.md describes every metric.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "adaedge/compress/registry.h"
#include "adaedge/util/simd.h"
#include "harness.h"
#include "heap.h"

namespace perfbench {
namespace {

/// Fewest timed rounds of each kind per run, whatever --seconds says.
constexpr size_t kMinRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  rank = std::min(rank, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Metrics in print order.
class Metrics {
 public:
  void Add(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }

  void PrintTable() const {
    for (const Entry& e : entries_) {
      std::printf("  %-44s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The decisions a round made: every repeated round must match the checked
/// one on all of these.
bool SameDecisions(const Round& a, const Round& b) {
  return a.attempted == b.attempted && a.failed == b.failed &&
         a.out_bytes == b.out_bytes && a.lossy_outputs == b.lossy_outputs &&
         a.fingerprint == b.fingerprint && a.pulls == b.pulls &&
         a.recodes == b.recodes;
}

/// CPU seconds of one round, robust to bursts of load from outside the
/// process: the sum over the round's streams of each stream's median over
/// all rounds.
double RobustCpuSeconds(const std::vector<Round>& rounds) {
  double total = 0.0;
  const size_t streams = rounds.front().stream_cpu_seconds.size();
  for (size_t k = 0; k < streams; ++k) {
    std::vector<double> samples;
    for (const Round& r : rounds) samples.push_back(r.stream_cpu_seconds[k]);
    total += Median(std::move(samples));
  }
  return total;
}

/// Median over `rounds` of CPU seconds per operation.
double MedianCpuPerOp(const std::vector<Round>& rounds) {
  std::vector<double> samples;
  for (const Round& r : rounds) samples.push_back(Ratio(r.cpu_seconds, r.ops));
  return Median(std::move(samples));
}

void AddLayerMetrics(Metrics& m, const Round& reference,
                     const std::vector<Round>& plain,
                     const std::vector<Round>& traced, const Tracer& tracer,
                     const Samples& plain_samples,
                     const Samples& traced_samples, double train_s,
                     double gen_s) {
  double ops = 0.0, engine_s = 0.0, wait_s = 0.0, recode_s = 0.0;
  for (const Round& r : traced) {
    ops += static_cast<double>(r.ops);
    engine_s += r.engine_seconds;
    wait_s += r.output_wait_seconds;
    recode_s += r.recode_seconds;
  }
  const double rounds = static_cast<double>(traced.size());
  uint64_t lossless_calls = 0, refusals = 0;
  uint64_t encode_ns = 0, encode_pts = 0, decode_ns = 0, decode_pts = 0;
  for (const auto& arm : tracer.arms()) {
    if (!arm->lossy) lossless_calls += arm->encode_calls;
    refusals += arm->refusals;
    encode_ns += arm->encode_ns;
    encode_pts += arm->encode_points;
    decode_ns += arm->decode_ns;
    decode_pts += arm->decode_points;
  }

  m.Add("core.self_us_per_op",
        1e6 * Ratio(engine_s - tracer.CodecAndModelSeconds(), ops), "us");
  m.Add("core.op_us_p99", Percentile(plain_samples.op_us, 0.99), "us");
  m.Add("core.op_samples", static_cast<double>(plain_samples.op_us.size()),
        "count");
  m.Add("core.lossless_trials_per_op",
        Ratio(static_cast<double>(lossless_calls), ops), "calls/op");
  m.Add("core.lossy_outputs", static_cast<double>(reference.lossy_outputs),
        "count");
  m.Add("core.recodes_per_ingest",
        Ratio(static_cast<double>(reference.recodes),
              static_cast<double>(reference.ops)),
        "recodes/op");
  m.Add("core.recode_us_per_ingest", 1e6 * Ratio(recode_s, ops), "us");
  m.Add("core.fleet.ingest_us_p50", Median(traced_samples.ingest_us), "us");
  m.Add("core.fleet.output_wait_us_per_batch", 1e6 * Ratio(wait_s, ops), "us");

  m.Add("compress.encode_ns_per_pt",
        Ratio(static_cast<double>(encode_ns), static_cast<double>(encode_pts)),
        "ns/point");
  m.Add("compress.decode_ns_per_pt",
        Ratio(static_cast<double>(decode_ns), static_cast<double>(decode_pts)),
        "ns/point");
  m.Add("compress.refusals", Ratio(static_cast<double>(refusals), rounds),
        "count");
  std::vector<std::string> arms;
  for (const auto& arm : adaedge::compress::DefaultLosslessArms(kPrecision)) {
    arms.push_back(arm.name);
  }
  for (const auto& arm : adaedge::compress::DefaultLossyArms(kPrecision)) {
    arms.push_back(arm.name);
  }
  for (const std::string& name : arms) {
    const ArmCounters* counters = nullptr;
    for (const auto& arm : tracer.arms()) {
      if (arm->arm == name) counters = arm.get();
    }
    double calls = counters ? static_cast<double>(counters->encode_calls) : 0.0;
    double ns = counters ? static_cast<double>(counters->encode_ns) : 0.0;
    double pts = counters ? static_cast<double>(counters->encode_points) : 0.0;
    m.Add("compress.arm." + name + ".calls", Ratio(calls, rounds), "count");
    m.Add("compress.arm." + name + ".encode_ns_per_pt", Ratio(ns, pts),
          "ns/point");
  }

  const ModelCounters& model = tracer.model();
  m.Add("ml.predict_calls_per_op",
        Ratio(static_cast<double>(model.predict_calls), ops), "calls/op");
  m.Add("ml.predict_us_per_op",
        1e-3 * Ratio(static_cast<double>(model.predict_ns), ops), "us");
  m.Add("ml.train_s", train_s, "s");

  for (const std::string& name : arms) {
    auto it = reference.pulls.find(name);
    m.Add("bandit.pulls." + name,
          it == reference.pulls.end() ? 0.0 : static_cast<double>(it->second),
          "count");
  }
  m.Add("sim.budget_utilization", reference.budget_utilization, "fraction");
  m.Add("data.gen_s", gen_s, "s");
  m.Add("trace.overhead_frac",
        Ratio(MedianCpuPerOp(traced), MedianCpuPerOp(plain)) - 1.0,
        "fraction");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const char* isa =
      adaedge::util::simd::IsaName(adaedge::util::simd::ActiveIsa());

  int64_t gen_start = NowNs();
  workload->Generate(args.seed);
  const double gen_s = 1e-9 * static_cast<double>(NowNs() - gen_start);

  // Harness-owned containers are allocated outside the heap count, which
  // from here on measures what the engines hold above the inputs.
  std::vector<double> setup_s, train_s;
  std::vector<Round> plain, traced;
  Samples checked_samples, plain_samples, traced_samples;
  Tracer tracer;
  Check check;
  heap::ResetPeak();
  const int64_t heap_base = heap::LiveBytes();

  // Set-up runs once before the checked round and again after every timed
  // round, so that its samples spread over the run as the rounds do.
  auto set_up = [&] {
    double train = workload->Train();
    double warm = workload->WarmUp();
    heap::HarnessScope scope;
    train_s.push_back(train);
    setup_s.push_back(train + warm);
  };
  set_up();
  {
    heap::HarnessScope scope;
    checked_samples.op_us.reserve(workload->OpsPerRound());
  }
  const Round reference = workload->RunRound(nullptr, &check, checked_samples);

  const int64_t timed_start = NowNs();
  const double budget_ns = 1e9 * args.seconds;
  for (size_t r = 0;; ++r) {
    const bool enough = plain.size() >= kMinRounds &&
                        (!args.trace || traced.size() >= kMinRounds);
    if (enough && static_cast<double>(NowNs() - timed_start) >= budget_ns) {
      break;
    }
    const bool use_tracer = args.trace && r % 2 == 1;
    Samples& samples = use_tracer ? traced_samples : plain_samples;
    {
      heap::HarnessScope scope;
      samples.op_us.reserve(samples.op_us.size() + workload->OpsPerRound());
      if (use_tracer) {
        samples.ingest_us.reserve(samples.ingest_us.size() +
                                  workload->IngestsPerRound());
      }
    }
    Round round =
        workload->RunRound(use_tracer ? &tracer : nullptr, nullptr, samples);
    {
      heap::HarnessScope scope;
      if (!SameDecisions(round, reference)) {
        check.Fail(std::string(use_tracer ? "traced" : "plain") + " round " +
                   std::to_string(r) +
                   " made other decisions than the checked round");
      }
      (use_tracer ? traced : plain).push_back(std::move(round));
    }
    set_up();
  }
  const double mem_peak_mb =
      1e-6 * static_cast<double>(heap::PeakBytes() - heap_base);

  uint64_t attempted = reference.attempted;
  uint64_t failed = reference.failed;
  for (const auto* rounds : {&plain, &traced}) {
    for (const Round& r : *rounds) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }

  Metrics metrics;
  if (!args.trace) {
    metrics.Add("ingest_pts_per_cpu_s",
                Ratio(static_cast<double>(reference.points),
                      RobustCpuSeconds(plain)),
                "points/CPU-s");
    metrics.Add("latency_p50_us", Median(plain_samples.op_us), "us");
    metrics.Add("out_bytes_per_pt",
                Ratio(static_cast<double>(reference.out_bytes),
                      static_cast<double>(reference.points)),
                "bytes/point");
    metrics.Add("task_accuracy", check.accuracy(), "fraction");
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("mem_peak_mb", mem_peak_mb, "MB");
  } else {
    AddLayerMetrics(metrics, reference, plain, traced, tracer, plain_samples,
                    traced_samples, Median(train_s), gen_s);
  }

  std::printf("perfbench %s seed=%llu simd=%s trace=%d rounds=%zu+%zu "
              "(plain+traced, after 1 checked) ops/round=%llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              isa, args.trace ? 1 : 0, plain.size(), traced.size(),
              static_cast<unsigned long long>(reference.ops));
  std::printf("  latency samples: %zu\n", plain_samples.op_us.size());
  metrics.PrintTable();
  if (!check.ok()) {
    std::printf("  CHECK FAILED: %s\n", check.first_error().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              check.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed allocator thresholds. With glibc's adaptive ones, a block freed at
  // the top of the heap is handed back to the kernel and faulted in again on
  // the next call, so the cost of a call depended on where the previous
  // round's blocks happened to lie: deflate's two 128 KB hash tables made
  // online_lowentropy's rounds alternate between ~105 and ~175 us per
  // segment on a 4-core Xeon VM.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(args);
}
