#include "storage/buffer_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/macros.h"

namespace gammadb::storage {

BufferPool::BufferPool(SimulatedDisk* disk, const ChargeContext* charge,
                       uint64_t capacity_bytes)
    : disk_(disk), charge_(charge) {
  GAMMA_CHECK(disk != nullptr && charge != nullptr);
  const uint64_t frames = capacity_bytes / disk->page_size();
  // Keep at least a handful of frames so concurrent pins (B-tree descents
  // hold parent + child) always succeed.
  capacity_frames_ = static_cast<uint32_t>(std::max<uint64_t>(frames, 8));
}

BufferPool::~BufferPool() {
  // Intentionally no flush: accounting requires explicit FlushAll inside a
  // phase; destruction outside a query would charge to nothing anyway.
}

Status BufferPool::ReadWithRetry(uint32_t page_no, uint8_t* out,
                                 AccessIntent intent) {
  Status status;
  for (int attempt = 0; attempt <= kMaxIoRetries; ++attempt) {
    if (attempt > 0) {
      ++io_retries_;
      charge_->SerialSec(kRetryBackoffSec);
      // A retry re-seeks from scratch no matter how the first pass streamed.
      intent = AccessIntent::kRandom;
    }
    status = disk_->Read(page_no, out);
    if (status.ok() || status.IsIOError()) {
      // The platters spun either way; a transient failure costs the same
      // access time as a success.
      charge_->DiskRead(disk_->page_size(), intent);
    }
    if (!status.IsIOError()) return status;
  }
  return Status::Unavailable("node " + std::to_string(disk_->node()) +
                             ", page " + std::to_string(page_no) + ": " +
                             std::to_string(kMaxIoRetries) +
                             " read retries exhausted (" + status.message() +
                             ")");
}

Status BufferPool::WriteWithRetry(uint32_t page_no, const uint8_t* data,
                                  AccessIntent intent) {
  Status status;
  for (int attempt = 0; attempt <= kMaxIoRetries; ++attempt) {
    if (attempt > 0) {
      ++io_retries_;
      charge_->SerialSec(kRetryBackoffSec);
      intent = AccessIntent::kRandom;
    }
    status = disk_->Write(page_no, data);
    if (status.ok() || status.IsIOError()) {
      charge_->DiskWrite(disk_->page_size(), intent);
    }
    if (!status.IsIOError()) return status;
  }
  return Status::Unavailable("node " + std::to_string(disk_->node()) +
                             ", page " + std::to_string(page_no) + ": " +
                             std::to_string(kMaxIoRetries) +
                             " write retries exhausted (" + status.message() +
                             ")");
}

Status BufferPool::WriteBack(uint32_t page_no, Frame& frame) {
  GAMMA_RETURN_NOT_OK(
      WriteWithRetry(page_no, frame.data.data(), frame.write_intent));
  frame.dirty = false;
  return Status::OK();
}

Status BufferPool::MakeRoom() {
  if (frames_.size() < capacity_frames_) return Status::OK();
  GAMMA_CHECK_MSG(!lru_.empty(), "buffer pool: all frames pinned");
  const uint32_t victim_no = lru_.front();
  auto it = frames_.find(victim_no);
  GAMMA_DCHECK(it != frames_.end());
  if (it->second.dirty) GAMMA_RETURN_NOT_OK(WriteBack(victim_no, it->second));
  lru_.pop_front();
  spare_ = std::move(it->second.data);
  frames_.erase(it);
  ++evictions_;
  return Status::OK();
}

Result<uint8_t*> BufferPool::Pin(uint32_t page_no, AccessIntent intent) {
  auto it = frames_.find(page_no);
  if (it != frames_.end()) {
    Frame& frame = it->second;
    if (frame.in_lru) {
      lru_.erase(frame.lru_pos);
      frame.in_lru = false;
    }
    frame.pin_count += 1;
    ++hits_;
    charge_->BufferHit();
    return frame.data.data();
  }
  GAMMA_RETURN_NOT_OK(MakeRoom());
  // Read into the spare buffer first (the last victim's, so a steady miss
  // stream allocates nothing); a failed or corrupt read must not leave a
  // frame cached, and hands the buffer back as the spare.
  std::vector<uint8_t> buf = std::move(spare_);
  buf.resize(disk_->page_size());
  Status status = ReadWithRetry(page_no, buf.data(), intent);
  if (status.ok() && SimulatedDisk::ComputeChecksum(buf.data(), buf.size()) !=
                         disk_->StoredChecksum(page_no)) {
    status = Status::Corruption("checksum mismatch on node " +
                                std::to_string(disk_->node()) + ", page " +
                                std::to_string(page_no));
  }
  if (!status.ok()) {
    spare_ = std::move(buf);
    return status;
  }
  Frame& frame = frames_[page_no];
  frame.data = std::move(buf);
  frame.pin_count = 1;
  ++misses_;
  return frame.data.data();
}

Result<uint32_t> BufferPool::NewPage(uint8_t** frame_out) {
  GAMMA_RETURN_NOT_OK(MakeRoom());
  uint32_t page_no = 0;
  GAMMA_ASSIGN_OR_RETURN(page_no, disk_->Allocate());
  Frame& frame = frames_[page_no];
  frame.data = std::move(spare_);
  frame.data.assign(disk_->page_size(), 0);
  frame.pin_count = 1;
  frame.dirty = true;
  frame.write_intent = AccessIntent::kSequential;
  *frame_out = frame.data.data();
  return page_no;
}

void BufferPool::MarkDirty(uint32_t page_no, AccessIntent intent) {
  auto it = frames_.find(page_no);
  GAMMA_CHECK_MSG(it != frames_.end() && it->second.pin_count > 0,
                  "MarkDirty on unpinned page");
  it->second.dirty = true;
  it->second.write_intent = intent;
}

void BufferPool::Unpin(uint32_t page_no) {
  auto it = frames_.find(page_no);
  GAMMA_CHECK_MSG(it != frames_.end() && it->second.pin_count > 0,
                  "Unpin without pin");
  Frame& frame = it->second;
  frame.pin_count -= 1;
  if (frame.pin_count == 0) {
    frame.lru_pos = lru_.insert(lru_.end(), page_no);
    frame.in_lru = true;
  }
}

Status BufferPool::FlushAll() {
  for (auto& [page_no, frame] : frames_) {
    if (frame.dirty) GAMMA_RETURN_NOT_OK(WriteBack(page_no, frame));
  }
  return Status::OK();
}

Status BufferPool::Invalidate() {
  GAMMA_RETURN_NOT_OK(FlushAll());
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->second.pin_count == 0) {
      if (it->second.in_lru) lru_.erase(it->second.lru_pos);
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

void BufferPool::Discard() {
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->second.pin_count == 0) {
      if (it->second.in_lru) lru_.erase(it->second.lru_pos);
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace gammadb::storage
