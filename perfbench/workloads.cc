// The four workloads. Each is a closed loop with one caller that replays
// inputs made from the seed through fresh engines every round, so that every
// round of a run makes the same decisions: no throughput-weighted target,
// no deadline reward, no fleet policy merge and no background recode
// threads, whose choices would depend on timing.

#include <cstdio>
#include <cstdlib>

#include "adaedge/adaedge.h"
#include "harness.h"
#include "heap.h"

namespace perfbench {
namespace {

namespace ac = adaedge::compress;
namespace core = adaedge::core;
namespace data = adaedge::data;
namespace ml = adaedge::ml;
using adaedge::query::AggKind;

/// Points per segment for the single-sensor workloads (8 CBF instances).
constexpr size_t kSegmentLength = 1024;
/// CBF instance length: one model input window.
constexpr size_t kWindow = 128;
/// Seed of the models' training sets (bench/bench_common.cc's default).
/// A model is trained centrally and shipped frozen to the node, so it is
/// the same in every run; --seed varies the streams the node ingests.
constexpr uint64_t kModelSeed = 9;

double Seconds(int64_t ns) { return 1e-9 * static_cast<double>(ns); }

std::vector<double> Take(data::Stream& stream, size_t points) {
  std::vector<double> values(points);
  stream.Fill(values);
  return values;
}

template <typename T>
T OrDie(adaedge::util::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Bandit seed of a round's `stream`-th engine: the library's default (42)
/// plus the stream index. It is engine configuration, the same for every
/// --seed, so that a run's decisions vary with its input data only.
uint64_t EngineSeed(size_t stream) { return 42 + stream; }

core::OnlineConfig OnlineArms(double target_ratio, size_t stream,
                              Tracer* tracer) {
  core::OnlineConfig config;
  config.target_ratio = target_ratio;
  config.precision = kPrecision;
  config.bandit.seed = EngineSeed(stream);
  config.lossless_arms = ac::DefaultLosslessArms(kPrecision);
  config.lossy_arms = ac::DefaultLossyArms(kPrecision, target_ratio);
  if (tracer != nullptr) {
    config.lossless_arms = tracer->Wrap(std::move(config.lossless_arms), false);
    config.lossy_arms = tracer->Wrap(std::move(config.lossy_arms), true);
  }
  return config;
}

/// Checks one decoded output against its input: lossless outputs must
/// restore it, and every output adds to the task accuracy (label agreement
/// per window with a model, Sum agreement without).
void CheckDecoded(Check& check, const core::Segment& segment,
                  std::span<const double> original, const ml::Model* model) {
  heap::HarnessScope scope;
  auto decoded = segment.Materialize();
  if (!decoded.ok()) {
    check.Fail("segment " + std::to_string(segment.meta().id) +
               " does not decode: " + decoded.status().ToString());
    return;
  }
  const std::vector<double>& values = decoded.value();
  std::string why;
  if (values.size() != original.size()) {
    check.Fail("segment " + std::to_string(segment.meta().id) + " decodes to " +
               std::to_string(values.size()) + " values");
    return;
  }
  if (segment.meta().state != core::SegmentState::kLossy &&
      !LosslessMatches(segment.meta().codec, original, values, &why)) {
    check.Fail("segment " + std::to_string(segment.meta().id) + ": " + why);
  }
  if (model != nullptr) {
    auto [matched, windows] = LabelAgreement(*model, original, values, kWindow);
    check.AddAgreement(matched, windows);
  } else {
    check.AddAgreement(SumAgreement(original, values), 1.0);
  }
}

/// --- online_ml and online_lowentropy: OnlineSelector::Process ---

struct OnlineSpec {
  /// knn target (Fig 7c) when true, Sum target otherwise.
  bool knn;
  bool low_entropy;
  double target_ratio;
  /// Fresh selectors per round, each on its own slice of the input.
  size_t streams;
  /// Segments per stream.
  size_t segments;
  size_t warmup_segments;
};

class OnlineWorkload final : public Workload {
 public:
  explicit OnlineWorkload(OnlineSpec spec) : spec_(spec) {}

  void Generate(uint64_t seed) override {
    const size_t points = spec_.streams * spec_.segments * kSegmentLength;
    if (spec_.low_entropy) {
      data::LowEntropyStream stream(seed, kPrecision);
      values_ = Take(stream, points);
    } else {
      data::CbfStream stream(seed, kWindow, kPrecision);
      values_ = Take(stream, points);
    }
    if (spec_.knn) {
      // The reference set of bench/bench_common.cc's knn.
      train_set_ = data::MakeCbfDataset(240, kWindow, kModelSeed, kPrecision);
    }
  }

  double Train() override {
    if (!spec_.knn) return 0.0;
    int64_t start = NowNs();
    ml::KnnConfig config;
    config.k = 3;
    model_ = std::shared_ptr<const ml::Model>(ml::Knn::Train(train_set_, config));
    return Seconds(NowNs() - start);
  }

  double WarmUp() override {
    int64_t start = NowNs();
    auto selector = MakeSelector(nullptr, 0);
    for (size_t i = 0; i < spec_.warmup_segments; ++i) {
      (void)selector->Process(i, Now(i), Values(0, i));
    }
    return Seconds(NowNs() - start);
  }

  Round RunRound(Tracer* tracer, Check* check, Samples& samples) override {
    Round round;
    for (size_t s = 0; s < spec_.streams; ++s) {
      auto selector = MakeSelector(tracer, s);
      const double cpu_start = ProcessCpuSeconds();
      for (size_t i = 0; i < spec_.segments; ++i) {
        std::span<const double> values = Values(s, i);
        int64_t start = NowNs();
        auto outcome = selector->Process(i, Now(i), values);
        int64_t ns = NowNs() - start;
        samples.op_us.push_back(1e-3 * static_cast<double>(ns));
        round.engine_seconds += Seconds(ns);
        ++round.attempted;
        if (!outcome.ok()) {
          ++round.failed;
          continue;
        }
        const core::Segment& segment = outcome.value().segment;
        round.out_bytes += segment.SizeBytes();
        if (segment.meta().state == core::SegmentState::kLossy) {
          ++round.lossy_outputs;
        }
        round.fingerprint = FoldSegment(round.fingerprint, segment);
        if (check != nullptr) {
          CheckDecoded(*check, segment, values,
                       spec_.knn ? model_.get() : nullptr);
        }
      }
      const double cpu = ProcessCpuSeconds() - cpu_start;
      heap::HarnessScope scope;
      round.cpu_seconds += cpu;
      round.stream_cpu_seconds.push_back(cpu);
      AddPulls(round.pulls, selector->ArmCounts());
    }
    round.ops = round.attempted;
    round.points = spec_.streams * spec_.segments * kSegmentLength;
    const double budget =
        spec_.target_ratio * 8.0 * static_cast<double>(round.points);
    if (check != nullptr && static_cast<double>(round.out_bytes) > budget) {
      check->Fail("payload bytes " + std::to_string(round.out_bytes) +
                  " exceed the target ratio's " + std::to_string(budget));
    }
    return round;
  }

  size_t OpsPerRound() const override {
    return spec_.streams * spec_.segments;
  }
  size_t IngestsPerRound() const override { return 0; }

 private:
  std::unique_ptr<core::OnlineSelector> MakeSelector(Tracer* tracer,
                                                     size_t stream) const {
    core::TargetSpec target =
        spec_.knn ? core::TargetSpec::MlAccuracy(
                        tracer != nullptr ? tracer->Wrap(model_) : model_,
                        kWindow)
                  : core::TargetSpec::AggAccuracy(AggKind::kSum);
    return OrDie(core::OnlineSelector::Create(
                     OnlineArms(spec_.target_ratio, stream, tracer), target),
                 "OnlineSelector::Create");
  }

  std::span<const double> Values(size_t stream, size_t i) const {
    return std::span<const double>(values_).subspan(
        (stream * spec_.segments + i) * kSegmentLength, kSegmentLength);
  }
  static double Now(size_t i) {
    return static_cast<double>(i * kSegmentLength) / kPointsPerSecond;
  }

  OnlineSpec spec_;
  std::vector<double> values_;
  ml::Dataset train_set_;
  std::shared_ptr<const ml::Model> model_;
};

/// --- fleet_sensors: FleetNode with one shard and one worker ---

constexpr size_t kSensors = 4096;
constexpr size_t kSensorPoints = 64;
constexpr size_t kBatchSegments = 16;
/// Batches the harness keeps between Ingest and PopCompressed.
constexpr size_t kInFlight = 4;
constexpr size_t kFleetBatches = 2048;
constexpr size_t kFleetSegments = kFleetBatches * kBatchSegments;
constexpr size_t kFleetWarmupBatches = 256;
constexpr double kFleetTargetRatio = 0.5;

class FleetWorkload final : public Workload {
 public:
  void Generate(uint64_t seed) override {
    data::CbfStream stream(seed, kWindow, kPrecision);
    values_ = Take(stream, kFleetSegments * kSensorPoints);
    fill_ns_.assign(kFleetBatches, 0);
  }

  double Train() override { return 0.0; }

  double WarmUp() override {
    int64_t start = NowNs();
    auto node = MakeNode(nullptr);
    for (size_t k = 0; k < kFleetWarmupBatches * kBatchSegments; ++k) {
      (void)node->Ingest(k % kSensors, Values(k), Now(k));
      if ((k + 1) % kBatchSegments == 0 &&
          (k + 1) / kBatchSegments >= kInFlight) {
        (void)node->PopCompressed();
      }
    }
    for (size_t b = 0; b + 1 < kInFlight; ++b) (void)node->PopCompressed();
    return Seconds(NowNs() - start);
  }

  Round RunRound(Tracer* tracer, Check* check, Samples& samples) override {
    auto node = MakeNode(tracer);
    Round round;
    size_t pushed = 0;
    size_t popped = 0;
    auto pop = [&]() -> bool {
      int64_t start = NowNs();
      std::optional<core::FleetNode::CompressedBatch> batch =
          node->PopCompressed();
      int64_t end = NowNs();
      if (!batch.has_value()) return false;
      round.output_wait_seconds += Seconds(end - start);
      samples.op_us.push_back(1e-3 * static_cast<double>(end - fill_ns_[popped]));
      const core::Segment& segment = batch->segment;
      round.out_bytes += segment.SizeBytes();
      if (segment.meta().state == core::SegmentState::kLossy) {
        ++round.lossy_outputs;
      }
      round.fingerprint = FoldSegment(round.fingerprint, segment);
      if (check != nullptr) CheckBatch(*check, *batch, popped);
      ++popped;
      return true;
    };

    const double cpu_start = ProcessCpuSeconds();
    for (size_t k = 0; k < kFleetSegments; ++k) {
      const bool fills = (k + 1) % kBatchSegments == 0;
      int64_t start = (fills || tracer != nullptr) ? NowNs() : 0;
      // An Ingest that fails loses its segment, which the accounting
      // below counts.
      (void)node->Ingest(k % kSensors, Values(k), Now(k));
      if (tracer != nullptr) {
        samples.ingest_us.push_back(1e-3 * static_cast<double>(NowNs() - start));
      }
      if (fills) fill_ns_[pushed++] = start;
      while (pushed - popped >= kInFlight && pop()) {
      }
    }
    // Stop drains the worker; the last batches are then already queued.
    node->Stop();
    while (pop()) {
    }
    round.cpu_seconds = ProcessCpuSeconds() - cpu_start;
    round.engine_seconds = round.cpu_seconds;
    round.ops = popped;
    round.points = kFleetSegments * kSensorPoints;

    heap::HarnessScope scope;
    round.stream_cpu_seconds.push_back(round.cpu_seconds);
    AddPulls(round.pulls, node->shard_selector(0).ArmCounts());
    // Every segment not emitted in a batch is lost: it counts as failed.
    const uint64_t emitted = node->signals_out();
    round.attempted = kFleetSegments;
    round.failed = kFleetSegments - std::min<uint64_t>(emitted, kFleetSegments);
    if (check != nullptr &&
        (node->signals_in() != kFleetSegments || emitted != kFleetSegments ||
         node->signals_rejected() != 0)) {
      check->Fail("fleet accounting: in " + std::to_string(node->signals_in()) +
                  ", out " + std::to_string(emitted) + ", rejected " +
                  std::to_string(node->signals_rejected()));
    }
    return round;
  }

  size_t OpsPerRound() const override { return kFleetBatches; }
  size_t IngestsPerRound() const override { return kFleetSegments; }

 private:
  std::unique_ptr<core::FleetNode> MakeNode(Tracer* tracer) const {
    core::FleetConfig config;
    config.shards = 1;
    config.threads_per_shard = 1;
    config.batch_segments = kBatchSegments;
    config.merge_interval_batches = 0;
    config.online = OnlineArms(kFleetTargetRatio, 0, tracer);
    auto node = OrDie(core::FleetNode::Create(
                          config, core::TargetSpec::AggAccuracy(AggKind::kSum)),
                      "FleetNode::Create");
    node->Start();
    return node;
  }

  /// The `index`-th batch must carry segments index*16 .. index*16+15 in
  /// ingest order, each with its sensor id and length, and restore them.
  void CheckBatch(Check& check, const core::FleetNode::CompressedBatch& batch,
                  size_t index) const {
    heap::HarnessScope scope;
    const std::string where = "batch " + std::to_string(index);
    if (batch.segment.meta().id != index ||
        batch.entries.size() != kBatchSegments) {
      check.Fail(where + " arrived as id " +
                 std::to_string(batch.segment.meta().id) + " with " +
                 std::to_string(batch.entries.size()) + " entries");
      return;
    }
    auto split = core::FleetNode::SplitBatch(batch);
    if (!split.ok()) {
      check.Fail(where + " does not decode: " + split.status().ToString());
      return;
    }
    const bool lossy = batch.segment.meta().state == core::SegmentState::kLossy;
    for (size_t j = 0; j < kBatchSegments; ++j) {
      const size_t k = index * kBatchSegments + j;
      const core::FleetNode::SensorSegment& slice = split.value()[j];
      if (slice.sensor_id != k % kSensors || slice.values.size() != kSensorPoints) {
        check.Fail(where + " entry " + std::to_string(j) + " is sensor " +
                   std::to_string(slice.sensor_id) + " with " +
                   std::to_string(slice.values.size()) + " values");
        return;
      }
      std::string why;
      if (!lossy && !LosslessMatches(batch.segment.meta().codec, Values(k),
                                     slice.values, &why)) {
        check.Fail(where + ": " + why);
      }
      check.AddAgreement(SumAgreement(Values(k), slice.values), 1.0);
    }
  }

  std::span<const double> Values(size_t k) const {
    return std::span<const double>(values_).subspan(k * kSensorPoints,
                                                    kSensorPoints);
  }
  static double Now(size_t k) {
    return static_cast<double>(k * kSensorPoints) / kPointsPerSecond;
  }

  std::vector<double> values_;
  /// When the Ingest that filled each batch started.
  std::vector<int64_t> fill_ns_;
};

/// --- offline_budget: serial OfflineNode under a storage budget ---

constexpr size_t kOfflineStreams = 64;
constexpr size_t kOfflineSegments = 128;
/// Warm-up: the first segments of the first few streams, each on a fresh
/// node, so that its time does not hang on one stream's bandit.
constexpr size_t kOfflineWarmupStreams = 4;
constexpr size_t kOfflineWarmupSegments = 64;
/// Segments at the end of each stream that must still be lossless.
constexpr size_t kFreshSegments = 16;

class OfflineWorkload final : public Workload {
 public:
  void Generate(uint64_t seed) override {
    data::CbfStream stream(seed, kWindow, kPrecision);
    values_ = Take(stream, kOfflineStreams * kOfflineSegments * kSegmentLength);
    // The training set of bench/bench_common.cc's kmeans.
    train_set_ = data::MakeCbfDataset(900, kWindow, kModelSeed, kPrecision);
  }

  double Train() override {
    int64_t start = NowNs();
    ml::KMeansConfig config;
    config.k = 3;
    model_ = std::shared_ptr<const ml::Model>(ml::KMeans::Train(train_set_, config));
    return Seconds(NowNs() - start);
  }

  double WarmUp() override {
    double seconds = 0.0;
    for (size_t s = 0; s < kOfflineWarmupStreams; ++s) {
      int64_t start = NowNs();
      auto node = MakeNode(nullptr, s);
      for (size_t i = 0; i < kOfflineWarmupSegments; ++i) {
        (void)node->Ingest(i, Now(i), Values(s, i));
      }
      seconds += Seconds(NowNs() - start);
    }
    return seconds;
  }

  Round RunRound(Tracer* tracer, Check* check, Samples& samples) override {
    Round round;
    double utilization = 0.0;
    for (size_t s = 0; s < kOfflineStreams; ++s) {
      auto node = MakeNode(tracer, s);
      adaedge::sim::StorageBudget& budget = *node->store().budget();
      uint64_t failed = 0;
      const double cpu_start = ProcessCpuSeconds();
      for (size_t i = 0; i < kOfflineSegments; ++i) {
        int64_t start = NowNs();
        adaedge::util::Status status = node->Ingest(i, Now(i), Values(s, i));
        int64_t ns = NowNs() - start;
        samples.op_us.push_back(1e-3 * static_cast<double>(ns));
        round.engine_seconds += Seconds(ns);
        if (!status.ok()) ++failed;
        if (check != nullptr && budget.used() > budget.capacity()) {
          check->Fail("budget over capacity after ingest " + std::to_string(i));
        }
      }
      const double cpu = ProcessCpuSeconds() - cpu_start;
      round.attempted += kOfflineSegments;
      round.failed += failed;
      round.recodes += node->recode_ops();
      round.recode_seconds += node->recode_busy_seconds();
      utilization += budget.utilization();

      heap::HarnessScope scope;
      round.cpu_seconds += cpu;
      round.stream_cpu_seconds.push_back(cpu);
      AddPulls(round.pulls, node->ArmCounts());
      const std::vector<uint64_t> ids = node->store().AllIds();
      uint64_t held = 0;
      for (uint64_t id : ids) {
        auto segment = node->store().Peek(id);
        if (!segment.ok()) {
          if (check != nullptr) check->Fail("stored segment unreadable");
          continue;
        }
        const core::Segment& stored = segment.value();
        held += stored.SizeBytes();
        if (stored.meta().state == core::SegmentState::kLossy) {
          ++round.lossy_outputs;
        }
        round.fingerprint = FoldSegment(round.fingerprint, stored);
        if (check == nullptr) continue;
        CheckDecoded(*check, stored, Values(s, id), model_.get());
        if (id + kFreshSegments >= kOfflineSegments &&
            stored.meta().state != core::SegmentState::kLossless) {
          check->Fail("fresh segment " + std::to_string(id) +
                      " is not lossless");
        }
      }
      round.out_bytes += held;
      if (check != nullptr && (ids.size() != kOfflineSegments - failed ||
                               held != budget.used())) {
        check->Fail("store holds " + std::to_string(ids.size()) +
                    " segments of " + std::to_string(held) +
                    " bytes; the budget says " + std::to_string(budget.used()));
      }
    }
    round.ops = round.attempted;
    round.points = kOfflineStreams * kOfflineSegments * kSegmentLength;
    round.budget_utilization = utilization / kOfflineStreams;
    return round;
  }

  size_t OpsPerRound() const override {
    return kOfflineStreams * kOfflineSegments;
  }
  size_t IngestsPerRound() const override { return 0; }

 private:
  std::unique_ptr<core::OfflineNode> MakeNode(Tracer* tracer,
                                              size_t stream) const {
    core::OfflineConfig config;
    // One eighth of the raw stream, so that recoding runs beside ingest
    // for most of the stream (Fig 12's overcommit).
    config.storage_budget_bytes = kOfflineSegments * kSegmentLength;
    config.recode_threshold = 0.8;
    config.precision = kPrecision;
    config.bandit.seed = EngineSeed(stream);
    config.recode_threads = 1;
    config.lossless_arms = ac::DefaultLosslessArms(kPrecision);
    config.lossy_arms = ac::DefaultLossyArms(kPrecision);
    std::shared_ptr<const ml::Model> model = model_;
    if (tracer != nullptr) {
      config.lossless_arms = tracer->Wrap(std::move(config.lossless_arms), false);
      config.lossy_arms = tracer->Wrap(std::move(config.lossy_arms), true);
      model = tracer->Wrap(model_);
    }
    return OrDie(core::OfflineNode::Create(
                     config, core::TargetSpec::MlAccuracy(model, kWindow)),
                 "OfflineNode::Create");
  }

  std::span<const double> Values(size_t stream, size_t i) const {
    return std::span<const double>(values_).subspan(
        (stream * kOfflineSegments + i) * kSegmentLength, kSegmentLength);
  }
  static double Now(size_t i) {
    return static_cast<double>(i * kSegmentLength) / kPointsPerSecond;
  }

  std::vector<double> values_;
  ml::Dataset train_set_;
  std::shared_ptr<const ml::Model> model_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "online_ml") {
    return std::make_unique<OnlineWorkload>(OnlineSpec{
        .knn = true, .low_entropy = false, .target_ratio = 0.1,
        .streams = 32, .segments = 64, .warmup_segments = 32});
  }
  if (name == "online_lowentropy") {
    return std::make_unique<OnlineWorkload>(OnlineSpec{
        .knn = false, .low_entropy = true, .target_ratio = 0.1,
        .streams = 4, .segments = 1024, .warmup_segments = 128});
  }
  if (name == "fleet_sensors") return std::make_unique<FleetWorkload>();
  if (name == "offline_budget") return std::make_unique<OfflineWorkload>();
  return nullptr;
}

}  // namespace perfbench
