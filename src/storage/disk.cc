#include "storage/disk.h"

#include <cstring>
#include <string>

#include "common/macros.h"

namespace gammadb::storage {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0x165667B19E3779F9ULL;
constexpr size_t kStripe = 8 * sizeof(uint64_t);

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

/// One multiply-xor step. Xor, rotate and an odd multiply are invertible,
/// so for a fixed `acc` a changed input changes the result, and for a fixed
/// input a changed `acc` does too: one changed word changes its lane's
/// final value.
inline uint64_t Round(uint64_t acc, uint64_t input) {
  return Rotl(acc ^ input, 31) * kPrime1;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

}  // namespace

SimulatedDisk::SimulatedDisk(uint32_t page_size, sim::FaultInjector* faults,
                             int node)
    : page_size_(page_size), faults_(faults), node_(node) {
  GAMMA_CHECK(page_size >= 64);
  const std::vector<uint8_t> zeroed(page_size, 0);
  fresh_page_checksum_ = ComputeChecksum(zeroed.data(), page_size);
}

uint32_t SimulatedDisk::ComputeChecksum(const uint8_t* data, size_t len) {
  // Eight independent lanes keep eight multiplies in flight per 64-byte
  // stripe; lane i consumes word i of every stripe. Spelled out so the
  // lanes stay in registers.
  uint64_t a0 = 1 * kPrime2, a1 = 2 * kPrime2, a2 = 3 * kPrime2,
           a3 = 4 * kPrime2, a4 = 5 * kPrime2, a5 = 6 * kPrime2,
           a6 = 7 * kPrime2, a7 = 8 * kPrime2;
  size_t pos = 0;
  for (; pos + kStripe <= len; pos += kStripe) {
    const uint8_t* stripe = data + pos;
    a0 = Round(a0, Load64(stripe));
    a1 = Round(a1, Load64(stripe + 8));
    a2 = Round(a2, Load64(stripe + 16));
    a3 = Round(a3, Load64(stripe + 24));
    a4 = Round(a4, Load64(stripe + 32));
    a5 = Round(a5, Load64(stripe + 40));
    a6 = Round(a6, Load64(stripe + 48));
    a7 = Round(a7, Load64(stripe + 56));
  }
  uint64_t h = static_cast<uint64_t>(len) * kPrime1;
  for (const uint64_t lane : {a0, a1, a2, a3, a4, a5, a6, a7}) {
    h = Round(h, lane);
  }
  for (; pos < len; ++pos) h = Round(h, data[pos]);
  // Final avalanche, then fold to the stored 32 bits.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h ^ (h >> 32));
}

Status SimulatedDisk::CheckBounds(uint32_t page_no, const char* op) const {
  if (page_no >= pages_.size()) {
    return Status::OutOfRange(std::string(op) + " of page " +
                              std::to_string(page_no) + " on node " +
                              std::to_string(node_) + ": disk has " +
                              std::to_string(pages_.size()) + " pages");
  }
  return Status::OK();
}

Status SimulatedDisk::ConsultFaults(uint32_t page_no, bool writing) {
  if (faults_ == nullptr) return Status::OK();
  if (faults_->IsDead(node_)) {
    return Status::Unavailable("disk node " + std::to_string(node_) +
                               " is dead");
  }
  const sim::DiskFault fault =
      writing ? faults_->OnWrite(node_) : faults_->OnRead(node_);
  if (faults_->IsDead(node_)) {
    // This very operation was the scheduled point of death.
    return Status::Unavailable("disk node " + std::to_string(node_) +
                               " died mid-operation");
  }
  switch (fault) {
    case sim::DiskFault::kNone:
      break;
    case sim::DiskFault::kTransient:
      return Status::IOError(std::string("transient ") +
                             (writing ? "write" : "read") +
                             " fault on node " + std::to_string(node_) +
                             ", page " + std::to_string(page_no));
    case sim::DiskFault::kCorrupt:
      CorruptStoredPage(page_no);
      break;
  }
  return Status::OK();
}

Result<uint32_t> SimulatedDisk::Allocate() {
  if (faults_ != nullptr && faults_->IsDead(node_)) {
    return Status::Unavailable("disk node " + std::to_string(node_) +
                               " is dead");
  }
  if (pages_.size() >= kMaxPages) {
    return Status::ResourceExhausted(
        "disk on node " + std::to_string(node_) + " is full (" +
        std::to_string(kMaxPages) + " pages)");
  }
  pages_.emplace_back(page_size_, uint8_t{0});
  checksums_.push_back(fresh_page_checksum_);
  return static_cast<uint32_t>(pages_.size() - 1);
}

Status SimulatedDisk::Read(uint32_t page_no, uint8_t* out) {
  GAMMA_RETURN_NOT_OK(CheckBounds(page_no, "read"));
  GAMMA_RETURN_NOT_OK(ConsultFaults(page_no, /*writing=*/false));
  std::memcpy(out, pages_[page_no].data(), page_size_);
  return Status::OK();
}

Status SimulatedDisk::Write(uint32_t page_no, const uint8_t* data) {
  GAMMA_RETURN_NOT_OK(CheckBounds(page_no, "write"));
  GAMMA_RETURN_NOT_OK(ConsultFaults(page_no, /*writing=*/true));
  std::memcpy(pages_[page_no].data(), data, page_size_);
  checksums_[page_no] = ComputeChecksum(data, page_size_);
  return Status::OK();
}

uint32_t SimulatedDisk::StoredChecksum(uint32_t page_no) const {
  GAMMA_CHECK(page_no < checksums_.size());
  return checksums_[page_no];
}

void SimulatedDisk::CorruptStoredPage(uint32_t page_no) {
  GAMMA_CHECK(page_no < pages_.size());
  pages_[page_no][page_no % page_size_] ^= 0xFF;
}

}  // namespace gammadb::storage
