// Real wall-clock microbenchmarks (google-benchmark) of the client hot
// paths: chunk build/parse, snapshot lookup (FlatHashMap vs unordered_map —
// the parallel-hashmap substitution in §5), CRC32C, and base64lex; plus
// info rows for the CRC32C kernel and sim::Device::Serve at a full
// interval list, the two host hot spots of the simulator, for the
// zero-copy chunk fetch from the object store, for the snapshot build's
// time and heap allocations, and for the KV metadata plane's ingest
// allocations, Get and Scan.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <set>
#include <string_view>
#include <unordered_map>

#include "bench/bench_util.h"
#include "common/base64lex.h"
#include "common/crc32.h"
#include "common/flat_hash_map.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/chunk_buffer.h"
#include "core/chunk_format.h"
#include "core/metadata.h"
#include "core/snapshot.h"
#include "kv/cluster.h"
#include "net/fabric.h"
#include "ostore/mem_store.h"
#include "ostore/modeled_store.h"
#include "sim/calibration.h"
#include "sim/device.h"
#include "sim/node.h"

// Every heap allocation in this process, for the allocation-count rows.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with the
// operator new at each delete site and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace diesel {
namespace {

/// A finished chunk with `num_files` files of `file_size` random bytes.
Bytes MakeChunk(size_t num_files, size_t file_size, uint64_t seed = 7) {
  core::ChunkBuilder builder(0);
  Rng rng(seed);
  Bytes content(file_size);
  for (auto& b : content) b = static_cast<uint8_t>(rng.Next());
  for (size_t i = 0; i < num_files; ++i) {
    builder.Add("/bench/cls" + std::to_string(i % 10) + "/f" +
                    std::to_string(i),
                content);
  }
  return builder.Finish(core::ChunkId::Make(1, 2, 3, 4), 1);
}

void BM_ChunkBuild(benchmark::State& state) {
  const size_t file_size = static_cast<size_t>(state.range(0));
  const size_t num_files = (4 << 20) / file_size;
  Rng rng(1);
  Bytes content(file_size);
  for (auto& b : content) b = static_cast<uint8_t>(rng.Next());
  core::ChunkId id = core::ChunkId::Make(1, 2, 3, 4);
  for (auto _ : state) {
    core::ChunkBuilder builder(4 << 20);
    for (size_t i = 0; i < num_files; ++i) {
      builder.Add("/bench/f" + std::to_string(i), content);
    }
    Bytes chunk = builder.Finish(id, 1);
    benchmark::DoNotOptimize(chunk.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(num_files * file_size));
}
BENCHMARK(BM_ChunkBuild)->Arg(4 << 10)->Arg(128 << 10);

void BM_ChunkParse(benchmark::State& state) {
  core::ChunkBuilder builder(0);
  Rng rng(2);
  Bytes content(8 << 10);
  for (auto& b : content) b = static_cast<uint8_t>(rng.Next());
  for (size_t i = 0; i < 512; ++i) {
    builder.Add("/bench/f" + std::to_string(i), content);
  }
  Bytes chunk = builder.Finish(core::ChunkId::Make(1, 2, 3, 4), 1);
  for (auto _ : state) {
    auto view = core::ChunkView::Parse(chunk);
    benchmark::DoNotOptimize(view.ok());
  }
}
BENCHMARK(BM_ChunkParse);

void BM_ChunkParseHeaderOnly(benchmark::State& state) {
  // Metadata recovery parses thousands of headers without payloads; this is
  // the header-decode throughput in file entries per second.
  const size_t num_files = static_cast<size_t>(state.range(0));
  Bytes chunk = MakeChunk(num_files, 64);
  auto peek = core::ChunkView::PeekHeaderLen({chunk.data(), 12});
  BytesView header(chunk.data(), peek.value());
  for (auto _ : state) {
    auto view = core::ChunkView::ParseHeaderOnly(header);
    benchmark::DoNotOptimize(view.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(num_files));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(header.size()));
}
BENCHMARK(BM_ChunkParseHeaderOnly)->Arg(512)->Arg(4096);

/// FileMeta of file `i` of a parsed chunk, as the snapshot records it (the
/// offset addresses the blob, header included).
core::FileMeta EntryMeta(const core::ChunkView& view, uint32_t i) {
  const core::ChunkFileEntry& e = view.entries()[i];
  core::FileMeta m;
  m.offset = view.header_len() + e.offset;
  m.length = e.length;
  m.crc = e.crc;
  m.index_in_chunk = i;
  m.full_name = e.name;
  return m;
}

void BM_FileSliceView(benchmark::State& state) {
  // Zero-copy read as the cache and the shuffle window serve it: slice a
  // cached chunk blob through ChunkBuffer::Slice (bounds check, memoized
  // CRC, one shared_ptr refcount bump) and touch the view.
  const size_t file_size = static_cast<size_t>(state.range(0));
  Bytes chunk = MakeChunk(8, file_size);
  const core::FileMeta meta =
      EntryMeta(core::ChunkView::Parse(chunk).value(), 3);
  core::ChunkBuffer buffer =
      core::ChunkBuffer::Wrap(ShareBytes(std::move(chunk)));
  for (auto _ : state) {
    core::FileSlice slice = buffer.Slice(meta).value();
    benchmark::DoNotOptimize(slice.view().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(file_size));
}
BENCHMARK(BM_FileSliceView)->Arg(4 << 10)->Arg(128 << 10);

void BM_FileSliceCopy(benchmark::State& state) {
  // Copying read: the pre-slice hot path materialized every file as a fresh
  // Bytes vector (allocate + memcpy per read).
  const size_t file_size = static_cast<size_t>(state.range(0));
  Bytes chunk = MakeChunk(8, file_size);
  const core::FileMeta meta =
      EntryMeta(core::ChunkView::Parse(chunk).value(), 3);
  core::ChunkBuffer buffer =
      core::ChunkBuffer::Wrap(ShareBytes(std::move(chunk)));
  for (auto _ : state) {
    core::FileSlice slice = buffer.Slice(meta).value();
    Bytes copy = slice.ToBytes();
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(file_size));
}
BENCHMARK(BM_FileSliceCopy)->Arg(4 << 10)->Arg(128 << 10);

void BM_CrcEveryRead(benchmark::State& state) {
  // Pre-memo behavior: every read of a cached file re-verified its CRC.
  const size_t file_size = static_cast<size_t>(state.range(0));
  constexpr size_t kReads = 64;  // reads per residency (multi-epoch reuse)
  Bytes data(file_size);
  Rng rng(9);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    for (size_t r = 0; r < kReads; ++r) {
      benchmark::DoNotOptimize(Crc32c(data));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kReads * file_size));
}
BENCHMARK(BM_CrcEveryRead)->Arg(128 << 10);

void BM_CrcOncePerResidency(benchmark::State& state) {
  // Memoized verification: CRC on first access, a bit test on the rest.
  const size_t file_size = static_cast<size_t>(state.range(0));
  constexpr size_t kReads = 64;
  Bytes data(file_size);
  Rng rng(9);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    bool verified = false;
    for (size_t r = 0; r < kReads; ++r) {
      if (!verified) {
        benchmark::DoNotOptimize(Crc32c(data));
        verified = true;
      }
      benchmark::DoNotOptimize(verified);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kReads * file_size));
}
BENCHMARK(BM_CrcOncePerResidency)->Arg(128 << 10);

core::MetadataSnapshot MakeSnapshot(size_t files) {
  std::vector<core::ChunkId> chunks;
  std::vector<core::FileMeta> metas;
  size_t per_chunk = 512;
  for (size_t i = 0; i < files; ++i) {
    if (i % per_chunk == 0) {
      chunks.push_back(core::ChunkId::Make(
          static_cast<uint32_t>(i / per_chunk), 1, 1,
          static_cast<uint32_t>(i / per_chunk)));
    }
    core::FileMeta m;
    m.chunk = chunks.back();
    m.offset = (i % per_chunk) * 100;
    m.length = 100;
    m.index_in_chunk = static_cast<uint32_t>(i % per_chunk);
    m.full_name = "/ds/train/cls" + std::to_string(i % 100) + "/img" +
                  std::to_string(i) + ".jpg";
    metas.push_back(std::move(m));
  }
  return core::MetadataSnapshot::Create("ds", 1, std::move(chunks),
                                        std::move(metas));
}

void BM_SnapshotLookup(benchmark::State& state) {
  auto snap = MakeSnapshot(static_cast<size_t>(state.range(0)));
  Rng rng(3);
  std::vector<std::string> probes;
  for (int i = 0; i < 1024; ++i) {
    size_t f = rng.Uniform(static_cast<uint64_t>(state.range(0)));
    probes.push_back("/ds/train/cls" + std::to_string(f % 100) + "/img" +
                     std::to_string(f) + ".jpg");
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap.Lookup(probes[i++ & 1023]));
  }
}
BENCHMARK(BM_SnapshotLookup)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_SnapshotLoad(benchmark::State& state) {
  auto snap = MakeSnapshot(static_cast<size_t>(state.range(0)));
  Bytes blob = snap.Serialize();
  for (auto _ : state) {
    auto loaded = core::MetadataSnapshot::Deserialize(blob);
    benchmark::DoNotOptimize(loaded.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_SnapshotLoad)->Arg(10000)->Arg(100000);

void BM_FlatHashMapLookup(benchmark::State& state) {
  FlatHashMap<uint64_t, uint64_t> map;
  Rng rng(4);
  for (int i = 0; i < state.range(0); ++i) map.InsertOrAssign(rng.Next(), i);
  Rng probe_rng(4);
  std::vector<uint64_t> probes;
  for (int i = 0; i < state.range(0); ++i) probes.push_back(probe_rng.Next());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(probes[i++ % probes.size()]));
  }
}
BENCHMARK(BM_FlatHashMapLookup)->Arg(100000);

void BM_StdUnorderedMapLookup(benchmark::State& state) {
  std::unordered_map<uint64_t, uint64_t> map;
  Rng rng(4);
  for (int i = 0; i < state.range(0); ++i) map[rng.Next()] = i;
  Rng probe_rng(4);
  std::vector<uint64_t> probes;
  for (int i = 0; i < state.range(0); ++i) probes.push_back(probe_rng.Next());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(probes[i++ % probes.size()]));
  }
}
BENCHMARK(BM_StdUnorderedMapLookup)->Arg(100000);

void BM_Crc32c(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(4 << 20);

void BM_Base64LexEncode(benchmark::State& state) {
  Bytes data(16);  // chunk-id sized
  Rng rng(6);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Base64LexEncode(data));
  }
}
BENCHMARK(BM_Base64LexEncode);

}  // namespace

/// Deterministic virtual-time kernel: N peer fetches of 64 KB each, issued
/// either as N singles or as N/k k-way batches. Pure simulation — the
/// resulting metrics are machine-independent and therefore gateable.
void ReportRpcBatchKernel() {
  constexpr size_t kFilesTotal = 256;
  constexpr size_t kBatchK = 16;
  constexpr uint64_t kReqBytes = 96;
  constexpr uint64_t kRespBytes = 64 << 10;
  auto run = [&](size_t k) {
    sim::Cluster cluster(2);
    net::Fabric fabric(cluster);
    sim::VirtualClock clock;
    for (size_t i = 0; i < kFilesTotal; i += k) {
      Status st = fabric.CallBatch(clock, 0, 1, k, kReqBytes * k,
                                   kRespBytes * k,
                                   [](Nanos arrival) { return arrival; });
      if (!st.ok()) std::abort();
    }
    return std::pair<double, double>{static_cast<double>(clock.now()),
                                     static_cast<double>(fabric.rpcs_issued())};
  };
  auto [single_ns, single_rpcs] = run(1);
  auto [batch_ns, batch_rpcs] = run(kBatchK);
  bench::Metric("rpc.unbatched.virtual_us", "us", single_ns / 1e3,
                obs::Direction::kLowerIsBetter);
  bench::Metric("rpc.batch16.virtual_us", "us", batch_ns / 1e3,
                obs::Direction::kLowerIsBetter);
  bench::Metric("rpc.batch16.per_file_latency_ns", "ns",
                batch_ns / kFilesTotal, obs::Direction::kLowerIsBetter);
  bench::Metric("rpc.batch16.speedup_x", "x", single_ns / batch_ns,
                obs::Direction::kHigherIsBetter);
  bench::Metric("rpc.batch16.rpc_reduction_x", "x", single_rpcs / batch_rpcs,
                obs::Direction::kHigherIsBetter);
}

/// Best-of-3 wall-clock ns for `iters` calls of `body`; the minimum is the
/// run least disturbed by other load on the host.
template <typename Body>
double BestOfThreeNs(size_t iters, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i) body();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  }
  return std::max(best, 1.0);
}

/// Wall-clock slice-view vs copy ratio over a 128 KB file. The ratio is
/// reported as info (machine-dependent), but it is the acceptance evidence
/// that slicing beats copying by >= 2x on the read hot path.
void ReportSliceSpeedRatio() {
  constexpr size_t kFileSize = 128 << 10;
  constexpr size_t kIters = 20000;
  Bytes chunk = MakeChunk(8, kFileSize);
  const core::FileMeta meta =
      EntryMeta(core::ChunkView::Parse(chunk).value(), 3);
  core::ChunkBuffer buffer =
      core::ChunkBuffer::Wrap(ShareBytes(std::move(chunk)));
  double view_ns = BestOfThreeNs(kIters, [&] {
    core::FileSlice s = buffer.Slice(meta).value();
    benchmark::DoNotOptimize(s.view().data());
  });
  double copy_ns = BestOfThreeNs(kIters, [&] {
    core::FileSlice s = buffer.Slice(meta).value();
    Bytes copy = s.ToBytes();
    benchmark::DoNotOptimize(copy.data());
  });
  bench::Info("slice.view_vs_copy_speedup_x", "x", copy_ns / view_ns);
}

/// Whole-chunk fetch of a 256 KB chunk (the benchmark's chunk size) through
/// ModeledStore over MemStore, against copying the same blob: the fetch
/// hands out the stored buffer, so it must not pay for the bytes. Both
/// sides are host wall-clock; the fetch includes its simulated fabric and
/// device bookkeeping.
void ReportChunkGetVsCopy() {
  constexpr size_t kIters = 2000;
  sim::Cluster cluster(2);
  net::Fabric fabric(cluster);
  ostore::MemStore backing;
  ostore::ModeledStore store(fabric, 1, sim::SsdClusterSpec(), &backing);
  sim::VirtualClock clock;
  const SharedBytes blob = ShareBytes(MakeChunk(32, 8 << 10));
  if (!store.Put(clock, 0, "chunk", blob).ok()) std::abort();
  double get_ns = BestOfThreeNs(kIters, [&] {
    Result<SharedBytes> got = store.Get(clock, 0, "chunk");
    benchmark::DoNotOptimize(got.value()->data());
  });
  double copy_ns = BestOfThreeNs(kIters, [&] {
    Bytes copy = *blob;
    benchmark::DoNotOptimize(copy.data());
  });
  bench::Info("ostore.chunk_get_vs_copy_x", "x", copy_ns / get_ns);
}

/// CRC32C throughput over an 8 KB file (the benchmark's file size), for the
/// dispatched kernel and for the portable table kernel it falls back to.
void ReportCrcKernel() {
  constexpr size_t kBytes = 8 << 10;
  constexpr size_t kIters = 4000;
  Bytes data(kBytes);
  Rng rng(5);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  double hw_ns = BestOfThreeNs(
      kIters, [&] { benchmark::DoNotOptimize(Crc32c(data)); });
  double table_ns = BestOfThreeNs(
      kIters, [&] { benchmark::DoNotOptimize(detail::Crc32cTable(data)); });
  bench::Info("crc32c.hw_active", "bool",
              detail::Crc32cHardwareActive() ? 1.0 : 0.0);
  bench::Info("crc32c.gbps", "GB/s",
              static_cast<double>(kBytes * kIters) / hw_ns);
  bench::Info("crc32c.hw_vs_table_x", "x", table_ns / hw_ns);
}

/// Serve cost on an 8-channel device whose channels each hold the full
/// kMaxIntervals (4096) busy intervals, against lists one interval long.
/// The fill books one request per channel per instant; the timed stream
/// then sends one request per instant, each `spacing` after the last. With
/// spacing = two service times every booking leaves an idle gap, so lists
/// stay full and every insert collapses the oldest gap; with spacing = one
/// service time each booking merges into the previous one. A scheduler that
/// scans lists linearly, or tries every channel when the first is free,
/// pays for the full lists on every request.
void ReportDeviceServe() {
  constexpr uint32_t kChannels = 8;
  constexpr size_t kIntervals = 4096;
  constexpr size_t kIters = 50000;
  constexpr Nanos kService = 100;
  auto serve_ns = [&](Nanos spacing) {
    sim::Device d({.name = "micro", .channels = kChannels,
                   .latency = kService, .bytes_per_sec = 0});
    Nanos t = 0;
    for (size_t i = 0; i < kIntervals; ++i, t += spacing) {
      for (uint32_t c = 0; c < kChannels; ++c) d.Serve(t, 0);
    }
    return BestOfThreeNs(kIters, [&] {
             benchmark::DoNotOptimize(d.Serve(t, 0));
             t += spacing;
           }) /
           kIters;
  };
  double full_ns = serve_ns(2 * kService);
  double empty_ns = serve_ns(kService);
  bench::Info("device.serve_full_ns", "ns", full_ns);
  bench::Info("device.serve_full_vs_empty_x", "x", full_ns / empty_ns);
}

/// perfbench's dataset shape: 8,192 files "/bench/train/clsNNN/imgNNNNNN.bin"
/// over 64 class directories, 32 files per chunk, in ingest order.
constexpr size_t kFiles = 8192;
constexpr size_t kClasses = 64;
constexpr size_t kPerChunk = 32;

struct BenchDataset {
  std::vector<core::ChunkId> chunks;
  std::vector<core::FileMeta> files;  // chunk c holds files [32c, 32c + 32)
};

BenchDataset MakeBenchDataset() {
  BenchDataset d;
  for (size_t i = 0; i < kFiles; ++i) {
    if (i % kPerChunk == 0) {
      d.chunks.push_back(core::ChunkId::Make(
          1000, 7, 1, static_cast<uint32_t>(i / kPerChunk)));
    }
    char path[64];
    std::snprintf(path, sizeof(path), "/bench/train/cls%03zu/img%06zu.bin",
                  i % kClasses, i / kClasses);
    core::FileMeta m;
    m.chunk = d.chunks.back();
    m.offset = (i % kPerChunk) * 8192;
    m.length = 8192;
    m.index_in_chunk = static_cast<uint32_t>(i % kPerChunk);
    m.full_name = path;
    d.files.push_back(std::move(m));
  }
  return d;
}

/// Snapshot build and lookup cost on the bench dataset, handed to Create in
/// the server's order (KV key order: parent-directory hash, then base
/// name). Build time is best of three; allocations are counted over one
/// build and over 1,024 Lookup + ChunkIndex pairs.
void ReportSnapshotBuild() {
  auto [chunks, files] = MakeBenchDataset();
  std::sort(files.begin(), files.end(),
            [](const core::FileMeta& a, const core::FileMeta& b) {
              uint64_t ha = PathHash(core::ParentPath(a.full_name));
              uint64_t hb = PathHash(core::ParentPath(b.full_name));
              if (ha != hb) return ha < hb;
              return core::BaseName(a.full_name) < core::BaseName(b.full_name);
            });

  double best_ns = std::numeric_limits<double>::infinity();
  uint64_t build_allocs = 0;
  core::MetadataSnapshot snap;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<core::ChunkId> c = chunks;
    std::vector<core::FileMeta> f = files;
    const uint64_t allocs0 = g_heap_allocs.load();
    auto t0 = std::chrono::steady_clock::now();
    snap = core::MetadataSnapshot::Create("bench", 1, std::move(c),
                                          std::move(f));
    auto t1 = std::chrono::steady_clock::now();
    build_allocs = g_heap_allocs.load() - allocs0;
    best_ns = std::min(best_ns, static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }

  constexpr size_t kProbes = 1024;
  std::vector<std::string> probes;
  for (size_t i = 0; i < kProbes; ++i) {
    probes.push_back(files[(i * 7919) % kFiles].full_name);
  }
  size_t found = 0;
  const uint64_t allocs0 = g_heap_allocs.load();
  for (const std::string& p : probes) {
    const core::FileMeta* m = snap.Lookup(p);
    if (m != nullptr && snap.ChunkIndex(m->chunk) != static_cast<size_t>(-1))
      ++found;
  }
  const uint64_t lookup_allocs = g_heap_allocs.load() - allocs0;
  if (found != kProbes) std::abort();

  bench::Info("snapshot.build_us", "us", best_ns / 1e3);
  bench::Info("snapshot.build_allocs_per_file", "allocs",
              static_cast<double>(build_allocs) / kFiles);
  bench::Info("snapshot.lookup_allocs", "allocs",
              static_cast<double>(lookup_allocs) / kProbes);
}

/// The KV metadata plane on the bench dataset: each 32-file chunk is built
/// with ChunkBuilder and registered from its header with one
/// MetadataService::RegisterChunk into a 16-shard KvCluster (4 nodes x 4
/// shards, as Deployment), then 1,024 Gets of file keys and one visiting
/// Scan of the file namespace. Allocations are counted over the
/// RegisterChunk calls only and divided by the batch entries they put:
/// chunk records, file records and directory markers. The files hold 16
/// bytes each: a file record stores the length, not the content, so the
/// entries are the same size as for 8 KB files. Each of three repetitions
/// starts from an empty cluster, so the scan is the first after the ingest
/// and includes the shards' key-order merge. Timings are best of three.
void ReportKvMetadata() {
  const BenchDataset data = MakeBenchDataset();
  std::vector<Bytes> blobs;
  blobs.reserve(data.chunks.size());
  size_t entries = 0;
  for (size_t c = 0; c < data.chunks.size(); ++c) {
    core::ChunkBuilder builder;
    // Its record, its files, and one marker per ancestor directory.
    std::set<std::string_view> dirs;
    for (size_t i = c * kPerChunk; i < (c + 1) * kPerChunk; ++i) {
      const std::string& name = data.files[i].full_name;
      builder.Add(name, Bytes(16, static_cast<uint8_t>(i)));
      for (std::string_view dir = core::ParentPath(name); dir != "/";
           dir = core::ParentPath(dir)) {
        dirs.insert(dir);
      }
    }
    entries += 1 + kPerChunk + dirs.size();
    blobs.push_back(builder.Finish(data.chunks[c], /*create_ts_ns=*/c));
  }
  std::vector<core::ChunkView> views;
  views.reserve(blobs.size());
  for (const Bytes& blob : blobs) {
    Result<core::ChunkView> view = core::ChunkView::Parse(blob);
    if (!view.ok()) std::abort();
    views.push_back(std::move(view).value());
  }
  constexpr size_t kProbes = 1024;
  std::vector<std::string> probes;
  for (size_t i = 0; i < kProbes; ++i) {
    probes.push_back(
        core::FileKey("bench", data.files[(i * 7919) % kFiles].full_name));
  }
  const std::string prefix = core::FileKeyPrefix("bench");

  double put_allocs = std::numeric_limits<double>::infinity();
  double get_ns = std::numeric_limits<double>::infinity();
  double scan_ns = std::numeric_limits<double>::infinity();
  using Clock = std::chrono::steady_clock;
  auto ns_since = [](Clock::time_point t0) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  };
  for (int rep = 0; rep < 3; ++rep) {
    sim::Cluster cluster(5);
    net::Fabric fabric(cluster);
    kv::KvClusterOptions opts;
    opts.nodes = {1, 2, 3, 4};
    kv::KvCluster kv(fabric, opts);
    core::MetadataService meta(kv, 0);
    sim::VirtualClock clock;

    const uint64_t allocs0 = g_heap_allocs.load();
    for (size_t c = 0; c < views.size(); ++c) {
      if (!meta.RegisterChunk(clock, "bench", views[c], blobs[c].size())
               .ok()) {
        std::abort();
      }
    }
    put_allocs = std::min(
        put_allocs,
        static_cast<double>(g_heap_allocs.load() - allocs0) / entries);

    auto t0 = Clock::now();
    for (const std::string& key : probes) {
      if (!kv.Get(clock, 0, key).ok()) std::abort();
    }
    get_ns = std::min(get_ns, ns_since(t0) / kProbes);

    size_t visited = 0;
    t0 = Clock::now();
    Status st = kv.Scan(clock, 0, prefix,
                        [&](uint32_t, std::string_view, std::string_view) {
                          ++visited;
                        });
    const double scan_total_ns = ns_since(t0);
    // Every key but the chunk records is under the file prefix.
    if (!st.ok() || visited != kv.TotalKeys() - data.chunks.size()) {
      std::abort();
    }
    scan_ns = std::min(scan_ns, scan_total_ns / visited);
  }
  bench::Info("kv.put_allocs_per_entry", "allocs", put_allocs);
  bench::Info("kv.get_ns", "ns", get_ns);
  bench::Info("kv.scan_ns_per_entry", "ns", scan_ns);
}

}  // namespace diesel

// Custom main instead of BENCHMARK_MAIN(): the google-benchmark timings are
// real wall-clock, so the report carries them as non-gated info only — the
// regression gate never judges machine-dependent numbers. The RPC batching
// kernel below runs in virtual time and IS gated.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  diesel::bench::OpenReport("micro_core", 0);
  diesel::bench::Param("timing", "wall-clock + virtual rpc kernel");
  diesel::bench::Info("wall_clock_only", "bool", 0.0);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // google-benchmark picks its iteration counts from the wall clock, so
  // whatever its runs counted (slice views, CRC skips, ...) differs from run
  // to run. Zero the registry here: the dumps then hold only the fixed-count
  // kernels below and stay byte-stable.
  diesel::obs::Metrics().ResetAll();
  diesel::ReportRpcBatchKernel();
  diesel::ReportSliceSpeedRatio();
  diesel::ReportChunkGetVsCopy();
  diesel::ReportCrcKernel();
  diesel::ReportDeviceServe();
  diesel::ReportSnapshotBuild();
  diesel::ReportKvMetadata();
  return diesel::bench::CloseReport();
}
