#include "dlt/trainer.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "dlt/dataset_gen.h"
#include "obs/metrics.h"

namespace diesel::dlt {
namespace {

constexpr double kWeightDecay = 1e-4;
constexpr uint64_t kInitSeed = 1234;

}  // namespace

SoftmaxTrainer::SoftmaxTrainer(TrainerOptions options)
    : options_(options),
      w_(options_.num_classes * (options_.dims + 1), 0.0) {
  // Small symmetric init so epoch-1 accuracy starts near chance.
  Rng rng(kInitSeed);
  for (double& v : w_) v = rng.NextGaussian() * 0.01;
}

Result<LabelledSample> SoftmaxTrainer::Decode(BytesView file) {
  LabelledSample s;
  DIESEL_RETURN_IF_ERROR(DecodeSample(file, s.label, s.features));
  return s;
}

void SoftmaxTrainer::Logits(const LabelledSample& s,
                            std::vector<double>& out) const {
  const size_t D = options_.dims;
  out.assign(options_.num_classes, 0.0);
  for (size_t c = 0; c < options_.num_classes; ++c) {
    const double* row = &w_[c * (D + 1)];
    double z = row[D];  // bias
    size_t n = std::min(D, s.features.size());
    for (size_t d = 0; d < n; ++d) z += row[d] * s.features[d];
    out[c] = z;
  }
}

double SoftmaxTrainer::TrainBatch(std::span<const LabelledSample> batch) {
  if (batch.empty()) return 0.0;
  const size_t D = options_.dims;
  const size_t C = options_.num_classes;
  std::vector<double> grad(w_.size(), 0.0);
  std::vector<double> logits;
  std::vector<double> probs(C);
  double loss = 0.0;

  for (const LabelledSample& s : batch) {
    Logits(s, logits);
    double zmax = *std::max_element(logits.begin(), logits.end());
    double zsum = 0.0;
    for (size_t c = 0; c < C; ++c) {
      probs[c] = std::exp(logits[c] - zmax);
      zsum += probs[c];
    }
    for (size_t c = 0; c < C; ++c) probs[c] /= zsum;
    size_t y = std::min<size_t>(s.label, C - 1);
    loss += -std::log(std::max(probs[y], 1e-12));
    for (size_t c = 0; c < C; ++c) {
      double g = probs[c] - (c == y ? 1.0 : 0.0);
      double* grow = &grad[c * (D + 1)];
      size_t n = std::min(D, s.features.size());
      for (size_t d = 0; d < n; ++d) grow[d] += g * s.features[d];
      grow[D] += g;
    }
  }

  double scale = options_.learning_rate / static_cast<double>(batch.size());
  for (size_t i = 0; i < w_.size(); ++i) {
    w_[i] -= scale * grad[i] +
             options_.learning_rate * kWeightDecay * w_[i];
  }
  double mean_loss = loss / static_cast<double>(batch.size());
  auto& m = obs::Metrics();
  m.GetCounter("dlt.train.batches").Inc();
  m.GetCounter("dlt.train.samples").Inc(batch.size());
  m.GetHistogram("dlt.train.batch_loss").Observe(mean_loss);
  return mean_loss;
}

double SoftmaxTrainer::TrainEpoch(std::span<const LabelledSample> samples) {
  double loss_sum = 0.0;
  size_t batches = 0;
  for (size_t i = 0; i < samples.size(); i += options_.minibatch) {
    size_t n = std::min(options_.minibatch, samples.size() - i);
    loss_sum += TrainBatch(samples.subspan(i, n));
    ++batches;
  }
  return batches == 0 ? 0.0 : loss_sum / static_cast<double>(batches);
}

double SoftmaxTrainer::TopKAccuracy(std::span<const LabelledSample> samples,
                                    size_t k) const {
  if (samples.empty()) return 0.0;
  std::vector<double> logits;
  size_t hit = 0;
  for (const LabelledSample& s : samples) {
    Logits(s, logits);
    double y_score = logits[std::min<size_t>(s.label, logits.size() - 1)];
    size_t better = 0;
    for (double z : logits) {
      if (z > y_score) ++better;
    }
    if (better < k) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(samples.size());
}

}  // namespace diesel::dlt
