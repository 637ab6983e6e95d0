#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the end-to-end benchmark: what one round of a workload
// reports, the output checks, and the tracer that wraps arms and models.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adaedge/compress/codec.h"
#include "adaedge/core/segment.h"
#include "adaedge/ml/model.h"
#include "trace.h"

namespace perfbench {

/// Decimal digits CBF and the low-entropy stream are rounded to, and the
/// precision the quantizing arms are configured with.
inline constexpr int kPrecision = 4;
/// Virtual ingest rate of every stream (points per second).
inline constexpr double kPointsPerSecond = 200000.0;

/// Whole-process CPU time (all threads), in seconds.
double ProcessCpuSeconds();

/// Owns the decorators of one traced round and accumulates their counters
/// over every traced round of a run.
class Tracer {
 public:
  /// Wraps each arm's codec in a TracedCodec that counts into the arm's
  /// counters (created on first use, keyed by arm name).
  std::vector<adaedge::compress::CodecArm> Wrap(
      std::vector<adaedge::compress::CodecArm> arms, bool lossy);
  std::shared_ptr<const adaedge::ml::Model> Wrap(
      std::shared_ptr<const adaedge::ml::Model> model);

  const std::vector<std::unique_ptr<ArmCounters>>& arms() const {
    return arms_;
  }
  const ModelCounters& model() const { return model_; }

  /// Encode and decode time of every arm plus model time, in seconds.
  double CodecAndModelSeconds() const;

 private:
  std::vector<std::unique_ptr<ArmCounters>> arms_;
  ModelCounters model_;
};

/// Output checks of the checked round, and the task accuracy the harness
/// recomputes from decoded outputs and originals.
class Check {
 public:
  void Fail(const std::string& why);
  bool ok() const { return ok_; }
  const std::string& first_error() const { return first_error_; }

  void AddAgreement(double matched, double total) {
    matched_ += matched;
    total_ += total;
  }
  double accuracy() const { return total_ > 0.0 ? matched_ / total_ : 0.0; }

 private:
  bool ok_ = true;
  std::string first_error_;
  double matched_ = 0.0;
  double total_ = 0.0;
};

/// What one round reports. Every round of a run replays the same inputs on
/// a fresh engine, so everything but the timings repeats exactly.
struct Round {
  /// Harness calls into the engine and how many returned an error or lost
  /// their data.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Engine operations: Process calls, Ingest calls (offline) or batches
  /// (fleet).
  uint64_t ops = 0;
  uint64_t points = 0;
  /// Whole-process CPU over the round's operations, in all and per stream
  /// (per fresh engine, in round order).
  double cpu_seconds = 0.0;
  std::vector<double> stream_cpu_seconds;
  /// Time spent inside engine operations: the summed wall time of the
  /// calls for the single-threaded engines, cpu_seconds for the fleet,
  /// whose work runs on its worker thread.
  double engine_seconds = 0.0;
  /// Payload bytes emitted (online, fleet) or held at the end (offline).
  uint64_t out_bytes = 0;
  uint64_t lossy_outputs = 0;
  /// CRC over every output payload in order: equal fingerprints mean the
  /// same decisions and the same bytes.
  uint32_t fingerprint = 0;
  std::map<std::string, uint64_t> pulls;
  uint64_t recodes = 0;
  double recode_seconds = 0.0;
  double budget_utilization = 0.0;
  /// Fleet: time the harness waited in PopCompressed.
  double output_wait_seconds = 0.0;
};

/// Per-operation samples a round appends to (microseconds). The harness
/// reserves room before each round so that recording never allocates.
struct Samples {
  std::vector<double> op_us;
  /// Fleet: duration of every Ingest call (traced rounds only).
  std::vector<double> ingest_us;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Makes the inputs (and the model's training set) from the seed.
  virtual void Generate(uint64_t seed) = 0;
  /// Trains the model, if the workload has one; returns its seconds.
  virtual double Train() = 0;
  /// Builds an engine, starts it and runs the warm-up operations; returns
  /// the seconds taken, teardown excluded.
  virtual double WarmUp() = 0;
  /// Runs one round on a fresh engine. `tracer` non-null wraps the arms and
  /// the model; `check` non-null checks every output.
  virtual Round RunRound(Tracer* tracer, Check* check, Samples& samples) = 0;
  /// Operations of one round, for reserving sample room.
  virtual size_t OpsPerRound() const = 0;
  virtual size_t IngestsPerRound() const = 0;
};

/// online_ml, fleet_sensors, online_lowentropy or offline_budget; null for
/// any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// --- shared checks ---

/// A lossless output must restore its input: bit for bit for the byte and
/// XOR arms (and raw), and within half a unit of the last kept decimal for
/// the quantizing arms (sprintz, buff), which decode q * (1/10^p).
bool LosslessMatches(adaedge::compress::CodecId codec,
                     std::span<const double> original,
                     std::span<const double> decoded, std::string* why);

/// Relative agreement of the Sums, clamped to [0, 1].
double SumAgreement(std::span<const double> original,
                    std::span<const double> decoded);

/// Windows of `window` points whose label on the decoded values equals the
/// label on the originals; returns {matched, windows}.
std::pair<double, double> LabelAgreement(const adaedge::ml::Model& model,
                                         std::span<const double> original,
                                         std::span<const double> decoded,
                                         size_t window);

/// Folds a segment's codec id and payload into a running CRC.
uint32_t FoldSegment(uint32_t crc, const adaedge::core::Segment& segment);

/// Adds "name:count" pull reports to `pulls` by arm name, dropping the
/// lossy-pool marker ("name*") and the offline band prefix ("bandN/name").
void AddPulls(std::map<std::string, uint64_t>& pulls,
              const std::vector<std::string>& counts);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
