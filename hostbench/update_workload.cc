// update_100k: the six Table 3 single-tuple statements on a logged,
// chain-declustered Gamma machine over 100k-tuple relations, grouped into
// short explicit transactions. Each op writes a few pages instead of
// scanning: WAL forcing, backup maintenance, deferred index updates,
// statistics maintenance and 2PL. After the timed phases the relations are
// compared with an oracle of every acknowledged write, before and after a
// Crash() + Recover().

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "wisconsin/wisconsin.h"
#include "workloads.h"

namespace hostbench {
namespace {

namespace gm = gammadb::gamma;
namespace wis = gammadb::wisconsin;
using Tuple = std::vector<uint8_t>;

constexpr const char* kHeap = "Aheap";
constexpr const char* kIndexed = "A";

enum Cls {
  kAppendHeap,     // append 1 tuple (no indices)
  kAppendIndexed,  // append 1 tuple (one index)
  kDelete,         // delete 1 tuple via the clustered index
  kModifyKey,      // modify the partitioning key: relocates the tuple
  kModifyPlain,    // modify a non-indexed attribute
  kModifyNc,       // modify the non-clustered index attribute
  kNumCls
};

constexpr const char* kClsName[kNumCls] = {"append_heap", "append_indexed",
                                           "delete",      "modify_key",
                                           "modify_plain", "modify_nc"};
// Ops of each class per shuffled cycle: Table 3's six statements once each.
// The op latency median and the p95 tail both fall inside the band that the
// delete and the three modifies share, the backup content scan (see
// hostbench/README.md).
constexpr int kWeights[kNumCls] = {1, 1, 1, 1, 1, 1};
constexpr const char* kCallKey[kNumCls] = {
    "gamma.append", "gamma.append", "gamma.delete",
    "gamma.modify", "gamma.modify", "gamma.modify"};
/// Statements per explicit transaction.
constexpr int kTxnStatements = 3;
/// Cycles (of kTxnStatements decks, so each ends on a commit) in the
/// exact-count window.
constexpr int kCountedCycles = 20;

void SetInt(Tuple& tuple, int attr, int32_t value) {
  std::memcpy(tuple.data() + wis::WisconsinSchema().offset(static_cast<size_t>(attr)),
              &value, sizeof(value));
}

int32_t GetInt(const Tuple& tuple, int attr) {
  return gammadb::catalog::TupleView(&wis::WisconsinSchema(), tuple)
      .GetInt(static_cast<size_t>(attr));
}

/// The acknowledged contents of one relation, keyed by unique1, with O(1)
/// uniform choice of a live key.
class Oracle {
 public:
  void Clear() {
    tuples_.clear();
    keys_.clear();
    pos_.clear();
  }
  void Put(Tuple tuple) {
    const int32_t key = GetInt(tuple, wis::kUnique1);
    if (!tuples_.contains(key)) {
      pos_[key] = keys_.size();
      keys_.push_back(key);
    }
    tuples_[key] = std::move(tuple);
  }
  Tuple Take(int32_t key) {
    Tuple tuple = std::move(tuples_.at(key));
    tuples_.erase(key);
    const size_t at = pos_.at(key);
    pos_[keys_.back()] = at;
    keys_[at] = keys_.back();
    keys_.pop_back();
    pos_.erase(key);
    return tuple;
  }
  Tuple& At(int32_t key) { return tuples_.at(key); }
  int32_t RandomKey(SeqRng& rng) const { return keys_[rng.Uniform(keys_.size())]; }
  std::vector<Tuple> Sorted() const {
    std::vector<Tuple> all;
    all.reserve(tuples_.size());
    for (const auto& [key, tuple] : tuples_) all.push_back(tuple);
    std::sort(all.begin(), all.end());
    return all;
  }

 private:
  std::unordered_map<int32_t, Tuple> tuples_;
  std::vector<int32_t> keys_;
  std::unordered_map<int32_t, size_t> pos_;
};

class UpdateWorkload : public Workload {
 public:
  explicit UpdateWorkload(WorkloadOptions options)
      : Workload(options),
        n_(options.tiny ? 5000 : 100000),
        deck_({std::begin(kWeights), std::end(kWeights)},
              DeriveSeed(options.seed, 0x0DD)),
        rng_(DeriveSeed(options.seed, 0x0FF5)) {}

  void Teardown() override { machine_.reset(); }

  bool Setup(Harness& h) override {
    auto tuples = h.Call("wisconsin.generate", nullptr, Booking::kAside, [&] {
      return wis::GenerateWisconsin(n_, DeriveSeed(options_.seed, 0xA));
    });
    gm::GammaConfig config;
    config.num_disk_nodes = 8;
    config.num_diskless_nodes = 8;
    config.page_size = 4096;
    config.enable_logging = true;
    config.chained_declustering = true;
    machine_ = std::make_unique<gm::GammaMachine>(config);
    const auto spec = gammadb::catalog::PartitionSpec::Hashed(wis::kUnique1);
    bool ok = true;
    for (const char* name : {kHeap, kIndexed}) {
      ok &= h.Call("gamma.load", nullptr, Booking::kAside, [&] {
               gammadb::Status s =
                   machine_->CreateRelation(name, wis::WisconsinSchema(), spec);
               return s.ok() ? machine_->LoadTuples(name, tuples) : s;
             }).ok();
    }
    ok &= h.Call("gamma.index", nullptr, Booking::kAside, [&] {
             return machine_->BuildIndex(kIndexed, wis::kUnique1, true);
           }).ok();
    ok &= h.Call("gamma.index", nullptr, Booking::kAside, [&] {
             return machine_->BuildIndex(kIndexed, wis::kUnique2, false);
           }).ok();
    generated_ = std::move(tuples);
    return ok;
  }

  bool Prepare(Harness& h) override {
    // The oracle starts from the generated tuples (benchmark bookkeeping,
    // kept out of setup_s).
    heap_.Clear();
    indexed_.Clear();
    for (const Tuple& t : generated_) {
      heap_.Put(t);
      indexed_.Put(t);
    }
    generated_ = {};
    next_fresh_ = static_cast<int32_t>(n_) + 1000;
    return RecomputeAll(h, *machine_, {kHeap, kIndexed});
  }

  void RunOp(Harness& h, Op& op) override {
    const int cls = deck_.Next();
    op.cls = kClsName[cls];
    if (txn_ == 0) {
      txn_ = h.Call("gamma.begin", &op, Booking::kPhase,
                    [&] { return machine_->BeginTxn(); });
    }
    const auto run = [&](auto&& statement) {
      return h.Call(kCallKey[cls], &op, Booking::kOp, statement);
    };
    gammadb::Result<gm::QueryResult> result =
        gammadb::Status::InvalidArgument("no statement");
    switch (cls) {
      case kAppendHeap:
      case kAppendIndexed: {
        Tuple tuple = FreshTuple();
        const char* relation = cls == kAppendHeap ? kHeap : kIndexed;
        result = run([&] {
          return machine_->RunAppend(gm::AppendQuery{relation, tuple}, txn_);
        });
        if (result.ok()) (cls == kAppendHeap ? heap_ : indexed_).Put(std::move(tuple));
        break;
      }
      case kDelete: {
        const int32_t key = indexed_.RandomKey(rng_);
        result = run([&] {
          return machine_->RunDelete(gm::DeleteQuery{kIndexed, wis::kUnique1, key},
                                     txn_);
        });
        if (result.ok()) indexed_.Take(key);
        break;
      }
      case kModifyKey: {
        const int32_t key = indexed_.RandomKey(rng_);
        const int32_t fresh = next_fresh_++;
        result = run([&] {
          return machine_->RunModify(
              gm::ModifyQuery{kIndexed, wis::kUnique1, key, wis::kUnique1, fresh},
              txn_);
        });
        if (result.ok()) {
          Tuple moved = indexed_.Take(key);
          SetInt(moved, wis::kUnique1, fresh);
          indexed_.Put(std::move(moved));
        }
        break;
      }
      case kModifyPlain: {
        const int32_t key = indexed_.RandomKey(rng_);
        const auto value = static_cast<int32_t>(rng_.Uniform(200));
        result = run([&] {
          return machine_->RunModify(
              gm::ModifyQuery{kIndexed, wis::kUnique1, key, wis::kOddOnePercent,
                              value},
              txn_);
        });
        if (result.ok()) SetInt(indexed_.At(key), wis::kOddOnePercent, value);
        break;
      }
      default: {  // kModifyNc: located and changed through unique2
        const int32_t key = indexed_.RandomKey(rng_);
        const int32_t u2 = GetInt(indexed_.At(key), wis::kUnique2);
        const int32_t fresh = next_fresh_++;
        result = run([&] {
          return machine_->RunModify(
              gm::ModifyQuery{kIndexed, wis::kUnique2, u2, wis::kUnique2, fresh},
              txn_);
        });
        if (result.ok()) SetInt(indexed_.At(key), wis::kUnique2, fresh);
        break;
      }
    }
    op.ok = result.ok() && Expect(op, result->result_tuples, 1);
    if (!result.ok()) {
      // The oracle no longer matches what the machine holds: roll the
      // transaction back and fail the durability check too.
      std::fprintf(stderr, "update op %llu (%s) failed: %s\n",
                   static_cast<unsigned long long>(op.id), op.cls.c_str(),
                   result.status().ToString().c_str());
      machine_->AbortTxn(txn_);
      txn_ = 0;
      oracle_valid_ = false;
      return;
    }
    h.Count(result->metrics);
    if (h.counting()) user_bytes_ += wis::WisconsinSchema().tuple_size();
    if (++statements_in_txn_ == kTxnStatements) Commit(h, &op);
  }

  double tail_pct() const override { return 95; }
  uint64_t cycle_ops() const override { return deck_.cycle_size() * kTxnStatements; }
  uint64_t counted_cycles() const override { return kCountedCycles; }

  MachineCounters ReadCounters() override { return CountersOf(*machine_); }

  bool Finish(Harness& h) override {
    if (txn_ != 0) Commit(h, nullptr);
    bool ok = oracle_valid_;
    ok &= Matches("after the timed phase");
    h.Call("gamma.recover", nullptr, Booking::kAside, [&] {
      machine_->Crash();
      const auto report = machine_->Recover();
      if (!report.ok()) {
        std::fprintf(stderr, "recover failed: %s\n",
                     report.status().ToString().c_str());
        ok = false;
      }
      return 0;
    });
    ok &= Matches("after Crash() + Recover()");
    return ok;
  }

 private:
  Tuple FreshTuple() {
    const int32_t u1 = next_fresh_++;
    const int32_t u2 = next_fresh_++;
    gammadb::catalog::TupleBuilder builder(&wis::WisconsinSchema());
    builder.SetInt(wis::kUnique1, u1).SetInt(wis::kUnique2, u2);
    for (int attr = wis::kTwo; attr <= wis::kOddOnePercent; ++attr) {
      builder.SetInt(static_cast<size_t>(attr), u1 % 100);
    }
    builder.SetChar(wis::kStringU1, "fresh").SetChar(wis::kStringU2, "fresh");
    builder.SetChar(wis::kString4, "AAAA");
    return {builder.bytes().begin(), builder.bytes().end()};
  }

  void Commit(Harness& h, Op* op) {
    h.Call("gamma.commit", op, Booking::kPhase,
           [&] { return machine_->CommitTxn(txn_); });
    txn_ = 0;
    statements_in_txn_ = 0;
  }

  /// Compares both relations with the oracle.
  bool Matches(const char* when) {
    bool ok = true;
    for (const auto& [name, oracle] :
         {std::pair<const char*, const Oracle*>{kHeap, &heap_}, {kIndexed, &indexed_}}) {
      auto stored = machine_->ReadRelation(name);
      const bool same = stored.ok() && [&] {
        std::sort(stored->begin(), stored->end());
        return *stored == oracle->Sorted();
      }();
      std::printf("durability: %s %s %s\n", name, when, same ? "matches" : "DIFFERS");
      ok &= same;
    }
    return ok;
  }

  uint32_t n_;
  Deck deck_;
  SeqRng rng_;
  std::unique_ptr<gm::GammaMachine> machine_;
  std::vector<Tuple> generated_;
  Oracle heap_;
  Oracle indexed_;
  int32_t next_fresh_ = 0;
  uint64_t txn_ = 0;
  int statements_in_txn_ = 0;
  bool oracle_valid_ = true;
};

}  // namespace

std::unique_ptr<Workload> MakeUpdateWorkload(WorkloadOptions options) {
  return std::make_unique<UpdateWorkload>(options);
}

}  // namespace hostbench
