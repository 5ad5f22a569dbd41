// Real SGD training on the synthetic labelled dataset (Fig. 13).
//
// A softmax (multinomial logistic regression) classifier trained with
// mini-batch SGD. The shuffle-equivalence experiment feeds it sample files
// read through DIESEL in either shuffle-over-dataset or chunk-wise-shuffle
// order and compares top-1/top-5 accuracy per epoch — the paper's claim is
// that the curves coincide.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace diesel::dlt {

struct TrainerOptions {
  size_t num_classes = 10;
  size_t dims = 32;
  size_t minibatch = 32;
  double learning_rate = 0.05;
};

struct LabelledSample {
  uint32_t label = 0;
  std::vector<float> features;
};

class SoftmaxTrainer {
 public:
  explicit SoftmaxTrainer(TrainerOptions options);

  /// Decode a serialized sample file (EncodeSample format).
  static Result<LabelledSample> Decode(BytesView file);

  /// One SGD step on a mini-batch. Returns the mean cross-entropy loss.
  double TrainBatch(std::span<const LabelledSample> batch);

  /// Feed an epoch worth of samples in the given order, stepping every
  /// `minibatch` samples (final partial batch included). Returns mean loss.
  double TrainEpoch(std::span<const LabelledSample> samples);

  /// Fraction of `samples` whose true label is within the top-k scores.
  double TopKAccuracy(std::span<const LabelledSample> samples, size_t k) const;

  const std::vector<double>& weights() const { return w_; }
  const TrainerOptions& options() const { return options_; }

 private:
  /// Scores (unnormalized logits) for one sample.
  void Logits(const LabelledSample& s, std::vector<double>& out) const;

  TrainerOptions options_;
  std::vector<double> w_;   // num_classes x (dims + 1), row-major, last = bias
};

}  // namespace diesel::dlt
