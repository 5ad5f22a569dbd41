// Calibration constants for the simulated cluster.
//
// Derived from the paper's Table 2 (SSD cluster block-size sweep), Table 4
// (hardware), and §6 quotes (Lustre MDS ~68k QPS, Redis tier ~0.97M QPS,
// Lustre 4KB reads ~40k files/s, etc.). These reproduce the *shapes* of the
// evaluation, not the authors' absolute testbed numbers.
#pragma once

#include "common/units.h"
#include "sim/device.h"

namespace diesel::sim {

// ---------------------------------------------------------------------------
// Network (100 Gbps InfiniBand, Table 4)
// ---------------------------------------------------------------------------

/// One-way wire latency between any two nodes.
constexpr Nanos kWireLatency = Micros(2);

/// Node NIC: 100 Gbps ~ 12.5 GB/s, multi-queue (8 hardware queues).
inline DeviceSpec NicSpec(std::string name) {
  return {.name = std::move(name), .channels = 8, .latency = Micros(1),
          .bytes_per_sec = 12.5e9 / 8};
}

/// Per-RPC software overhead on each endpoint (Thrift serialize + syscall).
constexpr Nanos kRpcCpuOverhead = Micros(8);

/// Marginal endpoint cost of one extra sub-request coalesced into a batched
/// RPC (Fabric::CallBatch): the wire round trip, syscall and dispatch are
/// paid once per batch, so each additional sub-request only adds its own
/// marshalling work. Calibrated well below kRpcCpuOverhead — that gap is
/// exactly the amortization a multi-get buys.
constexpr Nanos kRpcBatchSubRequestCost = Micros(1);

/// Time a caller spends detecting a lost RPC or a flapped node before the
/// call fails Unavailable (connect timeout; the Thrift clients fail much
/// faster than libMemcached's kMcDeadInstanceCost below because DIESEL
/// tasks keep long-lived connections and see resets promptly).
constexpr Nanos kFaultDetectTimeout = Millis(5);

// ---------------------------------------------------------------------------
// Storage cluster (6 machines x 6 NVMe, Table 4; sweep shape from Table 2)
// ---------------------------------------------------------------------------
// Table 2 fit: files/s ~= C / (L + size/B) with C/L ~= 34.4k ops/s and
// aggregate B ~= 3.35 GB/s. We use 16 channels so the 16-thread sweep in
// bench_table2 has one channel per thread (no self-queueing at low load).

// (Device latency/bandwidth are net of the RPC+NIC path costs the fabric
// charges separately, so the end-to-end sweep lands on the paper's numbers.)
inline DeviceSpec SsdClusterSpec() {
  return {.name = "ssd-cluster", .channels = 16, .latency = Micros(388),
          .bytes_per_sec = 4.3e9 / 16};
}

/// Write path of the storage cluster. NVMe writes land in device buffers and
/// stripe across all 36 drives, so aggregate write bandwidth is well above
/// the random-read figure (the paper ingests ImageNet-1K, ~140GB, from
/// memory in ~3 seconds).
inline DeviceSpec SsdClusterWriteSpec() {
  return {.name = "ssd-cluster-write", .channels = 16, .latency = Micros(250),
          .bytes_per_sec = 8.0e9 / 16};
}

// ---------------------------------------------------------------------------
// Lustre baseline
// ---------------------------------------------------------------------------
// MDS: ~68k QPS cap measured in the paper (Fig. 10b text). DNE enabled =>
// a few parallel service threads, each op ~59us.
inline DeviceSpec LustreMdsSpec() {
  return {.name = "lustre-mds", .channels = 4, .latency = Micros(59),
          .bytes_per_sec = 0.0};
}

/// Extra MDS->OSS RPC work for size-on-OSS stat (ls -lR pathology, Fig 10c):
/// multiple OSC glimpse RPCs per stat.
constexpr Nanos kLustreOssStatExtra = Micros(30);

/// Size-less stats during directory scans benefit from Lustre's statahead:
/// attributes are prefetched in batches, so most stats cost only this local
/// amortized time and a full MDS RPC is paid once per batch.
constexpr Nanos kLustreStataheadCost = Micros(20);
constexpr uint32_t kLustreStataheadBatch = 32;

/// Lustre OSS data path. Random 4KB file reads through the full POSIX stack
/// land near 40k files/s on 160 clients (Fig. 11a) once MDS + OSS costs are
/// paid; large reads stream at ~2 GB/s aggregate (Fig. 12, 128KB rows).
inline DeviceSpec LustreOssSpec() {
  return {.name = "lustre-oss", .channels = 24, .latency = Micros(400),
          .bytes_per_sec = 2.6e9 / 24};
}

/// Per-file lock/layout overhead charged on the client for each open.
constexpr Nanos kLustreClientOpenCost = Micros(25);

/// Lustre small-file write amplification: create involves an MDS transaction
/// plus OST object creation and layout locking; effectively serializes
/// around the MDS (paper: DIESEL writes 4KB files 366.7x faster).
constexpr Nanos kLustreCreateCost = Micros(600);

/// Per-file OSS commit/lock overhead on the write data path.
constexpr Nanos kLustreOssWriteExtra = Micros(1200);

// ---------------------------------------------------------------------------
// Redis-like metadata KV tier (16 instances on 4 nodes, Table 4)
// ---------------------------------------------------------------------------
// memtier-measured ceiling ~0.97M QPS across the tier (§6.3) => per-instance
// ~60k QPS, single-threaded service loop.
inline DeviceSpec RedisShardSpec(std::string name) {
  return {.name = std::move(name), .channels = 1, .latency = Micros(16),
          .bytes_per_sec = 2.0e9};
}

/// Marginal cost of one extra entry inside a pipelined batch command (the
/// shard's per-command latency is paid once per batch).
constexpr Nanos kKvBatchEntryCost = 1500;  // 1.5 us

// ---------------------------------------------------------------------------
// Memcached + twemproxy baseline
// ---------------------------------------------------------------------------
// Each node: memcached (16 threads) behind 8 proxy instances. Proxy adds a
// hop; no client-side batching for writes (libMemcached, §6.2).
inline DeviceSpec MemcachedNodeSpec(std::string name) {
  return {.name = std::move(name), .channels = 16, .latency = Micros(20),
          .bytes_per_sec = 3.0e9 / 16};
}

/// Twemproxy forwards requests; §6.2 notes it pipelines (merges) writes from
/// multiple clients but serves gets request-by-request, so reads carry a much
/// larger per-op proxy cost than writes.
inline DeviceSpec TwemproxySpec(std::string name) {
  return {.name = std::move(name), .channels = 8, .latency = 0,
          .bytes_per_sec = 2.5e9 / 8};
}
constexpr Nanos kProxyWriteCost = Micros(25);
constexpr Nanos kProxyReadCost = Micros(140);

/// Large items stress memcached's slab allocator and defeat the client
/// library's buffering; items above the threshold pay a per-byte penalty
/// (the 128KB write rows of Fig. 9 are far below wire speed in the paper).
constexpr uint64_t kMcLargeItemThreshold = 64 * 1024;
constexpr double kMcLargeItemNsPerByte = 40.0;

/// Cost of a get that lands on a dead/disabled instance: the client must
/// detect the connection failure (timeout + retry/backoff in libMemcached)
/// before falling back. This is what makes a ~5% miss fraction collapse
/// the reading speed by ~90% in Fig. 6.
constexpr Nanos kMcDeadInstanceCost = Millis(60);

// ---------------------------------------------------------------------------
// DIESEL node-local costs
// ---------------------------------------------------------------------------

/// In-memory copy bandwidth for cache hits (memcpy out of the chunk cache).
inline DeviceSpec MemBusSpec(std::string name) {
  return {.name = std::move(name), .channels = 8, .latency = Micros(2),
          .bytes_per_sec = 8.0e9};
}

/// FUSE user/kernel crossing per request (context switches, Fig. 11a gap).
constexpr Nanos kFuseCrossingCost = Micros(18);

/// Kernel splits FUSE reads into requests of at most this size.
constexpr uint64_t kFuseMaxRead = 128 * 1024;

/// DIESEL server request-executor CPU per file request (sort/merge path).
constexpr Nanos kServerExecutorCost = Micros(3);

/// libDIESEL client-side per-op cost (hashmap lookup etc. ~O(1), §6.3:
/// 8.83M QPS on one node with 16 threads => ~1.8us/op).
constexpr Nanos kSnapshotLookupCost = 1800;  // 1.8 us

/// Local XFS on NVMe (Fig. 10c third bar).
inline DeviceSpec XfsSpec() {
  return {.name = "xfs", .channels = 1, .latency = Micros(6),
          .bytes_per_sec = 2.8e9};
}

// ---------------------------------------------------------------------------
// GPU compute-time models (per-iteration forward+backward, batch 256/node,
// 8xV100; calibrated so Fig. 15 total times land in the paper's 37-66h range
// scaled down by the simulated epoch count).
// ---------------------------------------------------------------------------

struct ModelCompute {
  const char* name;
  Nanos iter_compute;   // GPU time per iteration (global batch 256 / 32 GPUs)
};

inline constexpr ModelCompute kAlexNet = {"alexnet", Millis(60)};
inline constexpr ModelCompute kVgg11 = {"vgg11", Millis(220)};
inline constexpr ModelCompute kResNet18 = {"resnet18", Millis(100)};
inline constexpr ModelCompute kResNet50 = {"resnet50", Millis(190)};

/// Per-image CPU preprocessing in the dataloader (JPEG decode + resize +
/// crop + normalize) — identical for both storage backends, and the reason
/// DIESEL's data access time is "about half" of Lustre's rather than 10x
/// smaller in Fig. 14.
constexpr Nanos kImagePreprocessCost = Micros(6000);

/// Extra per-file latency on the *shared production* Lustre the DLT tasks
/// read from (§2.1: many concurrent tasks saturate the shared filesystem);
/// the microbenchmarks use the unloaded model, Figs. 14/15 the loaded one.
constexpr Nanos kBusyLustrePerFileExtra = Micros(5000);

}  // namespace diesel::sim
