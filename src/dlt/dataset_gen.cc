#include "dlt/dataset_gen.h"

#include <algorithm>
#include <cstdio>

#include "common/crc32.h"
#include "common/hash.h"

namespace diesel::dlt {

DatasetSpec ImageNetLike(size_t scale_files, uint64_t mean_bytes) {
  DatasetSpec spec;
  spec.name = "imagenet1k";
  spec.num_classes = 100;  // scaled from 1000 to keep directories realistic
  spec.files_per_class = scale_files / spec.num_classes;
  spec.mean_file_bytes = mean_bytes;
  spec.fixed_size = false;
  spec.seed = 0x1357;
  return spec;
}

DatasetSpec CifarLike(size_t scale_files) {
  DatasetSpec spec;
  spec.name = "cifar10";
  spec.num_classes = 10;
  spec.files_per_class = scale_files / spec.num_classes;
  spec.mean_file_bytes = 3 * 1024;  // 32x32x3 bytes
  spec.fixed_size = true;
  spec.seed = 0x2468;
  return spec;
}

DatasetSpec OpenImagesLike(size_t scale_files) {
  DatasetSpec spec;
  spec.name = "openimages";
  spec.num_classes = 600;  // scaled from the ~6000 boxable classes
  spec.files_per_class = std::max<size_t>(1, scale_files / spec.num_classes);
  spec.mean_file_bytes = 60 * 1024;
  spec.fixed_size = false;
  spec.seed = 0x369C;
  return spec;
}

namespace {

uint64_t FileSeed(const DatasetSpec& spec, size_t index) {
  return HashCombine(spec.seed, index);
}

uint64_t FileSize(const DatasetSpec& spec, size_t index) {
  if (spec.fixed_size || spec.mean_file_bytes < 8) return spec.mean_file_bytes;
  // +-25% jitter, deterministic per file.
  Rng rng(FileSeed(spec, index) ^ 0x515A45ULL);  // "SIZE" stream tag
  uint64_t lo = spec.mean_file_bytes * 3 / 4;
  uint64_t hi = spec.mean_file_bytes * 5 / 4;
  return rng.UniformRange(lo, hi);
}

void FillContent(uint64_t seed, Bytes& out) {
  // xoshiro stream in 8-byte blocks; tail bytes from one extra draw.
  Rng rng(seed);
  size_t full = out.size() / 8;
  auto* p = out.data();
  for (size_t i = 0; i < full; ++i) {
    uint64_t v = rng.Next();
    std::memcpy(p + i * 8, &v, 8);
  }
  size_t rem = out.size() % 8;
  if (rem > 0) {
    uint64_t v = rng.Next();
    std::memcpy(p + full * 8, &v, rem);
  }
}

}  // namespace

std::string FilePath(const DatasetSpec& spec, size_t index) {
  size_t cls = index % spec.num_classes;
  size_t i = index / spec.num_classes;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "/%s/train/cls%03zu/img%06zu.bin",
                spec.name.c_str(), cls, i);
  return buf;
}

GeneratedFile MakeFile(const DatasetSpec& spec, size_t index) {
  GeneratedFile f;
  f.path = FilePath(spec, index);
  f.content.resize(FileSize(spec, index));
  FillContent(FileSeed(spec, index), f.content);
  return f;
}

bool VerifyContent(const DatasetSpec& spec, size_t index, BytesView content) {
  if (content.size() != FileSize(spec, index)) return false;
  Bytes expected(content.size());
  FillContent(FileSeed(spec, index), expected);
  return std::equal(content.begin(), content.end(), expected.begin());
}

Status ForEachFile(const DatasetSpec& spec,
                   const std::function<Status(const GeneratedFile&)>& sink) {
  for (size_t i = 0; i < spec.total_files(); ++i) {
    DIESEL_RETURN_IF_ERROR(sink(MakeFile(spec, i)));
  }
  return Status::Ok();
}

// ---- labelled samples -------------------------------------------------------

Bytes EncodeSample(uint32_t label, const std::vector<float>& features) {
  BinaryWriter w(8 + features.size() * 4);
  w.PutU32(label);
  w.PutU32(static_cast<uint32_t>(features.size()));
  for (float v : features) {
    uint32_t bits;
    std::memcpy(&bits, &v, 4);
    w.PutU32(bits);
  }
  return std::move(w).Take();
}

Status DecodeSample(BytesView data, uint32_t& label,
                    std::vector<float>& features) {
  BinaryReader r(data);
  DIESEL_ASSIGN_OR_RETURN(label, r.ReadU32());
  DIESEL_ASSIGN_OR_RETURN(uint32_t dims, r.ReadU32());
  // Check the count against the bytes left before sizing anything by it.
  if (dims > r.remaining() / 4) {
    return Status::Corruption("sample: feature count exceeds the data");
  }
  features.resize(dims);
  for (uint32_t i = 0; i < dims; ++i) {
    DIESEL_ASSIGN_OR_RETURN(uint32_t bits, r.ReadU32());
    std::memcpy(&features[i], &bits, 4);
  }
  return Status::Ok();
}

uint32_t SampleLabel(const SampleSpec& spec, size_t index) {
  return static_cast<uint32_t>(index % spec.num_classes);
}

Bytes MakeSample(const SampleSpec& spec, size_t index) {
  uint32_t label = SampleLabel(spec, index);
  // Class mean: deterministic gaussian direction per class.
  Rng mean_rng(HashCombine(spec.seed, label));
  Rng noise_rng(HashCombine(spec.seed ^ 0xABCDEF, index));
  std::vector<float> x(spec.dims);
  for (size_t d = 0; d < spec.dims; ++d) {
    double mean = mean_rng.NextGaussian() * spec.separation;
    x[d] = static_cast<float>(mean + noise_rng.NextGaussian());
  }
  return EncodeSample(label, x);
}

}  // namespace diesel::dlt
