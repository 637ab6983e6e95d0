#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Timing and counting decorators for the traced run. Every arm's codec and
// the frozen model are wrapped from outside the library; each decorator
// forwards every virtual to the wrapped object, so the engine makes the
// same decisions with and without them.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adaedge/compress/codec.h"
#include "adaedge/ml/model.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counters of one arm. Relaxed atomics: a fleet worker writes them while
/// the harness thread waits; the harness reads them after the round.
struct ArmCounters {
  std::string arm;
  bool lossy = false;
  std::atomic<uint64_t> encode_calls{0};
  std::atomic<uint64_t> encode_ns{0};
  std::atomic<uint64_t> encode_points{0};
  std::atomic<uint64_t> decode_ns{0};
  std::atomic<uint64_t> decode_points{0};
  /// Encode calls that returned an error (a codec declining the input).
  std::atomic<uint64_t> refusals{0};
};

/// Counters of the frozen model.
struct ModelCounters {
  std::atomic<uint64_t> predict_calls{0};
  std::atomic<uint64_t> predict_ns{0};
};

/// Forwards to `inner` and times Compress, CompressInto and Decompress into
/// `counters`. (The engines recode and transcode stored payloads through the
/// registry's codec objects, so that work is not seen here.)
class TracedCodec final : public adaedge::compress::Codec {
 public:
  TracedCodec(std::shared_ptr<const adaedge::compress::Codec> inner,
              ArmCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  adaedge::compress::CodecId id() const override { return inner_->id(); }
  adaedge::compress::CodecKind kind() const override {
    return inner_->kind();
  }
  size_t MaxCompressedSize(size_t value_count) const override {
    return inner_->MaxCompressedSize(value_count);
  }
  adaedge::util::Result<std::vector<uint8_t>> Compress(
      std::span<const double> values,
      const adaedge::compress::CodecParams& params) const override {
    int64_t start = NowNs();
    auto result = inner_->Compress(values, params);
    NoteEncode(values.size(), NowNs() - start, result.ok());
    return result;
  }
  adaedge::util::Status CompressInto(
      std::span<const double> values,
      const adaedge::compress::CodecParams& params,
      std::vector<uint8_t>& out) const override {
    int64_t start = NowNs();
    adaedge::util::Status status = inner_->CompressInto(values, params, out);
    NoteEncode(values.size(), NowNs() - start, status.ok());
    return status;
  }
  adaedge::util::Result<std::vector<double>> Decompress(
      std::span<const uint8_t> payload) const override {
    int64_t start = NowNs();
    auto result = inner_->Decompress(payload);
    int64_t ns = NowNs() - start;
    counters_->decode_ns.fetch_add(static_cast<uint64_t>(ns),
                                   std::memory_order_relaxed);
    if (result.ok()) {
      counters_->decode_points.fetch_add(result.value().size(),
                                         std::memory_order_relaxed);
    }
    return result;
  }
  bool SupportsRatio(double ratio, size_t value_count) const override {
    return inner_->SupportsRatio(ratio, value_count);
  }
  adaedge::util::Result<std::vector<uint8_t>> Recode(
      std::span<const uint8_t> payload,
      double new_target_ratio) const override {
    return inner_->Recode(payload, new_target_ratio);
  }
  bool SupportsRecode() const override { return inner_->SupportsRecode(); }
  adaedge::util::Result<double> AggregateDirect(
      adaedge::query::AggKind kind,
      std::span<const uint8_t> payload) const override {
    return inner_->AggregateDirect(kind, payload);
  }
  bool SupportsDirectAggregate(adaedge::query::AggKind kind) const override {
    return inner_->SupportsDirectAggregate(kind);
  }
  adaedge::util::Result<double> ValueAt(std::span<const uint8_t> payload,
                                        uint64_t index) const override {
    return inner_->ValueAt(payload, index);
  }
  bool SupportsRandomAccess() const override {
    return inner_->SupportsRandomAccess();
  }

 private:
  void NoteEncode(size_t points, int64_t ns, bool ok) const {
    counters_->encode_calls.fetch_add(1, std::memory_order_relaxed);
    counters_->encode_ns.fetch_add(static_cast<uint64_t>(ns),
                                   std::memory_order_relaxed);
    counters_->encode_points.fetch_add(points, std::memory_order_relaxed);
    if (!ok) counters_->refusals.fetch_add(1, std::memory_order_relaxed);
  }

  std::shared_ptr<const adaedge::compress::Codec> inner_;
  ArmCounters* counters_;
};

/// Forwards to `inner` and counts and times Predict.
class TracedModel final : public adaedge::ml::Model {
 public:
  TracedModel(std::shared_ptr<const adaedge::ml::Model> inner,
              ModelCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  adaedge::ml::ModelKind kind() const override { return inner_->kind(); }
  size_t num_features() const override { return inner_->num_features(); }
  int Predict(std::span<const double> features) const override {
    int64_t start = NowNs();
    int label = inner_->Predict(features);
    counters_->predict_calls.fetch_add(1, std::memory_order_relaxed);
    counters_->predict_ns.fetch_add(static_cast<uint64_t>(NowNs() - start),
                                    std::memory_order_relaxed);
    return label;
  }
  void SerializeBody(adaedge::util::ByteWriter& writer) const override {
    inner_->SerializeBody(writer);
  }

 private:
  std::shared_ptr<const adaedge::ml::Model> inner_;
  ModelCounters* counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
