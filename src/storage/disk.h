#ifndef GAMMA_STORAGE_DISK_H_
#define GAMMA_STORAGE_DISK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "sim/cost_tracker.h"
#include "sim/fault_injector.h"

namespace gammadb::storage {

/// Disk access pattern hint. Drives the cost model's positioning-vs-streaming
/// distinction; callers (file scans, B-tree descents) know which they are.
enum class AccessIntent { kSequential, kRandom };

/// Per-node accounting hook. A StorageManager owns one; every storage
/// component charges through it. When `tracker` is null (unit tests, data
/// loading outside a measured query) charging is a no-op.
struct ChargeContext {
  sim::CostTracker* tracker = nullptr;
  int node = -1;

  void DiskRead(uint64_t bytes, AccessIntent intent) const {
    if (tracker != nullptr) {
      tracker->ChargeDiskRead(node, bytes, intent == AccessIntent::kSequential);
    }
  }
  void DiskWrite(uint64_t bytes, AccessIntent intent) const {
    if (tracker != nullptr) {
      tracker->ChargeDiskWrite(node, bytes,
                               intent == AccessIntent::kSequential);
    }
  }
  void BufferHit() const {
    if (tracker != nullptr) tracker->ChargeBufferHit(node);
  }
  void Cpu(double instructions) const {
    if (tracker != nullptr) tracker->ChargeCpu(node, instructions);
  }
  /// Search CPU within one B-tree node during a descent.
  void BtreeNodeVisit() const {
    if (tracker != nullptr) {
      tracker->ChargeCpu(node, tracker->hw().cost.instr_per_btree_level);
    }
  }
  /// CPU of one request to this node's lock table. The grant decision
  /// itself is made by the machine's 2PL tables (GammaMachine::
  /// AcquireTxnLock); this is the node-side work of the request.
  void LockRequest() const {
    if (tracker != nullptr) {
      tracker->ChargeCpu(node, tracker->hw().cost.instr_per_lock);
    }
  }
  /// Stall time with no device activity (e.g. backoff before an I/O retry).
  void SerialSec(double seconds) const {
    if (tracker != nullptr) tracker->ChargeSerialSec(node, seconds);
  }
};

/// \brief One simulated disk drive: a flat array of fixed-size pages.
///
/// Data lives in host memory; timing comes entirely from the cost model via
/// the ChargeContext at the buffer-pool layer (the disk itself is a dumb
/// store so tests can use it without accounting).
///
/// Every stored page carries an out-of-band uint32 checksum, updated on
/// Write. The buffer pool recomputes it after each read and surfaces a
/// mismatch as Status::Corruption — keeping the detector out of the page
/// layout, the way a drive's sector ECC is invisible to the format on top.
/// The checksum lives only in host memory (never logged or persisted), so
/// it is free to change without moving any simulated result.
///
/// When a FaultInjector is attached, each Read/Write first consults the
/// node's fault schedule: a dead node yields kUnavailable, a transient
/// fault kIOError (retryable), and a corruption fault silently rots one
/// byte of the *stored* page so the checksum no longer matches.
class SimulatedDisk {
 public:
  /// Hard cap on pages per drive; Allocate past it is ResourceExhausted
  /// (a full disk), not a crash.
  static constexpr uint32_t kMaxPages = 1u << 20;

  explicit SimulatedDisk(uint32_t page_size,
                         sim::FaultInjector* faults = nullptr, int node = -1);

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  uint32_t page_size() const { return page_size_; }
  uint32_t num_pages() const { return static_cast<uint32_t>(pages_.size()); }
  int node() const { return node_; }

  /// Allocates a zeroed page and returns its page number.
  Result<uint32_t> Allocate();

  /// Copies a page into `out` (must hold page_size bytes). Non-const because
  /// an injected corruption fault mutates the stored page.
  Status Read(uint32_t page_no, uint8_t* out);

  /// Copies `data` (page_size bytes) into the page and refreshes its
  /// checksum.
  Status Write(uint32_t page_no, const uint8_t* data);

  /// The checksum recorded for the page by its last successful Write.
  uint32_t StoredChecksum(uint32_t page_no) const;

  /// Word-at-a-time page checksum: eight 64-bit multiply-xor lanes over
  /// 8-byte loads, a byte tail for lengths not a multiple of 64, and a final
  /// avalanche folded to 32 bits. `data` may be null when `len` is 0.
  static uint32_t ComputeChecksum(const uint8_t* data, size_t len);

  /// Test hook: flips one byte of the stored page without touching its
  /// checksum — the bit-rot a checksum exists to catch.
  void CorruptStoredPage(uint32_t page_no);

 private:
  /// Unavailable/IOError/OK verdict for one access; `writing` selects the
  /// fault stream and the corruption side effect only applies to reads.
  Status ConsultFaults(uint32_t page_no, bool writing);
  Status CheckBounds(uint32_t page_no, const char* op) const;

  uint32_t page_size_;
  std::vector<std::vector<uint8_t>> pages_;
  std::vector<uint32_t> checksums_;
  /// Checksum of a zeroed page, shared by every freshly allocated page.
  uint32_t fresh_page_checksum_ = 0;
  sim::FaultInjector* faults_;
  int node_;
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_DISK_H_
