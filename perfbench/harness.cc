#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "adaedge/util/crc32.h"

namespace perfbench {

namespace ac = adaedge::compress;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::vector<ac::CodecArm> Tracer::Wrap(std::vector<ac::CodecArm> arms,
                                       bool lossy) {
  for (ac::CodecArm& arm : arms) {
    ArmCounters* counters = nullptr;
    for (const auto& existing : arms_) {
      if (existing->arm == arm.name) counters = existing.get();
    }
    if (counters == nullptr) {
      arms_.push_back(std::make_unique<ArmCounters>());
      counters = arms_.back().get();
      counters->arm = arm.name;
      counters->lossy = lossy;
    }
    arm.codec = std::make_shared<TracedCodec>(arm.codec, counters);
  }
  return arms;
}

std::shared_ptr<const adaedge::ml::Model> Tracer::Wrap(
    std::shared_ptr<const adaedge::ml::Model> model) {
  return std::make_shared<TracedModel>(std::move(model), &model_);
}

double Tracer::CodecAndModelSeconds() const {
  uint64_t ns = model_.predict_ns.load();
  for (const auto& arm : arms_) ns += arm->encode_ns + arm->decode_ns;
  return 1e-9 * static_cast<double>(ns);
}

void Check::Fail(const std::string& why) {
  if (ok_) first_error_ = why;
  ok_ = false;
}

bool LosslessMatches(ac::CodecId codec, std::span<const double> original,
                     std::span<const double> decoded, std::string* why) {
  if (original.size() != decoded.size()) {
    *why = "decoded " + std::to_string(decoded.size()) + " values, expected " +
           std::to_string(original.size());
    return false;
  }
  const bool quantizing =
      codec == ac::CodecId::kSprintz || codec == ac::CodecId::kBuff;
  const double tolerance = 0.5 * std::pow(10.0, -kPrecision);
  for (size_t i = 0; i < original.size(); ++i) {
    bool same = quantizing
                    ? std::abs(original[i] - decoded[i]) <= tolerance
                    : std::memcmp(&original[i], &decoded[i],
                                  sizeof(double)) == 0;
    if (!same) {
      *why = std::string(ac::CodecIdName(codec)) + " changed value " +
             std::to_string(i);
      return false;
    }
  }
  return true;
}

double SumAgreement(std::span<const double> original,
                    std::span<const double> decoded) {
  double truth = 0.0;
  double approx = 0.0;
  for (double v : original) truth += v;
  for (double v : decoded) approx += v;
  if (std::abs(truth) < 1e-300) return std::abs(approx) < 1e-9 ? 1.0 : 0.0;
  return std::clamp(1.0 - std::abs(truth - approx) / std::abs(truth), 0.0,
                    1.0);
}

std::pair<double, double> LabelAgreement(const adaedge::ml::Model& model,
                                         std::span<const double> original,
                                         std::span<const double> decoded,
                                         size_t window) {
  size_t windows = std::min(original.size(), decoded.size()) / window;
  double matched = 0.0;
  for (size_t w = 0; w < windows; ++w) {
    if (model.Predict(original.subspan(w * window, window)) ==
        model.Predict(decoded.subspan(w * window, window))) {
      matched += 1.0;
    }
  }
  return {matched, static_cast<double>(windows)};
}

uint32_t FoldSegment(uint32_t crc, const adaedge::core::Segment& segment) {
  const uint8_t codec = static_cast<uint8_t>(segment.meta().codec);
  crc = adaedge::util::Crc32(std::span<const uint8_t>(&codec, 1), crc);
  return adaedge::util::Crc32(segment.payload(), crc);
}

void AddPulls(std::map<std::string, uint64_t>& pulls,
              const std::vector<std::string>& counts) {
  for (const std::string& entry : counts) {
    size_t colon = entry.rfind(':');
    if (colon == std::string::npos) continue;
    std::string name = entry.substr(0, colon);
    size_t slash = name.find('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    if (!name.empty() && name.back() == '*') name.pop_back();
    pulls[name] += std::stoull(entry.substr(colon + 1));
  }
}

}  // namespace perfbench
