#include "workloads.h"

namespace hostbench {

MachineCounters Workload::CountersOf(gammadb::gamma::GammaMachine& machine) {
  MachineCounters c;
  for (int i = 0; i < machine.config().num_disk_nodes; ++i) {
    const gammadb::storage::BufferPool& pool = machine.node(i).pool();
    c.pool_hits += pool.hits();
    c.pool_misses += pool.misses();
    c.pool_evictions += pool.evictions();
  }
  if (machine.wal() != nullptr) c.wal_bytes = machine.wal()->total_bytes();
  return c;
}

bool Workload::RecomputeAll(Harness& h, gammadb::gamma::GammaMachine& machine,
                            const std::vector<std::string>& relations,
                            const char* key) {
  bool ok = true;
  for (const std::string& name : relations) {
    ok &= h.Call(key, nullptr, Booking::kAside,
                 [&] { return machine.RecomputeStatistics(name); })
              .ok();
  }
  return ok;
}

Deck::Deck(std::vector<int> weights, uint64_t seed) : rng_(seed) {
  for (size_t cls = 0; cls < weights.size(); ++cls) {
    for (int i = 0; i < weights[cls]; ++i) cycle_.push_back(static_cast<int>(cls));
  }
}

int Deck::Next() {
  if (pos_ == order_.size()) {
    order_ = cycle_;
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.Uniform(i)]);
    }
    pos_ = 0;
  }
  return order_[pos_++];
}

}  // namespace hostbench
