#include "src/stream/disorder_injector.h"

#include <utility>

namespace ausdb {
namespace stream {

DisorderInjector::DisorderInjector(engine::OperatorPtr child,
                                   DisorderSpec spec)
    : child_(std::move(child)), spec_(spec), rng_(spec.seed) {}

void DisorderInjector::ForceAgedOut() {
  while (!pool_.empty() &&
         input_count_ - pool_.front().entry_index >=
             spec_.max_displacement) {
    out_queue_.push_back(std::move(pool_.front().tuple));
    pool_.pop_front();
  }
}

Result<std::optional<engine::Tuple>> DisorderInjector::Next() {
  for (;;) {
    if (!out_queue_.empty()) {
      engine::Tuple t = std::move(out_queue_.front());
      out_queue_.pop_front();
      return std::optional<engine::Tuple>(std::move(t));
    }
    if (exhausted_) {
      // Drain: pool in seeded-random order, then the held-back tuples
      // in hold order.
      if (!pool_.empty()) {
        const uint64_t idx = rng_.NextBelow(pool_.size());
        out_queue_.push_back(std::move(pool_[idx].tuple));
        pool_.erase(pool_.begin() + static_cast<ptrdiff_t>(idx));
        continue;
      }
      if (!late_.empty()) {
        out_queue_.push_back(std::move(late_.front().tuple));
        late_.pop_front();
        ++stats_.late_injected;
        continue;
      }
      return std::optional<engine::Tuple>(std::nullopt);
    }

    AUSDB_ASSIGN_OR_RETURN(std::optional<engine::Tuple> t,
                           child_->Next());
    if (!t.has_value()) {
      exhausted_ = true;
      continue;
    }
    ++input_count_;
    ++stats_.pulled;

    // Re-inject held-back tuples whose delay has elapsed, before the
    // current tuple so their displacement is exactly late_delay.
    while (!late_.empty() &&
           input_count_ >= late_.front().entry_index + spec_.late_delay) {
      out_queue_.push_back(std::move(late_.front().tuple));
      late_.pop_front();
      ++stats_.late_injected;
    }

    if (spec_.late_every_k > 0 &&
        input_count_ % spec_.late_every_k == 0) {
      late_.push_back(Held{input_count_, std::move(*t)});
      ForceAgedOut();
      continue;
    }

    const bool pooled =
        spec_.max_displacement > 0 &&
        (spec_.shuffle_probability >= 1.0 ||
         rng_.NextDouble() < spec_.shuffle_probability);
    if (pooled) {
      ++stats_.shuffled;
      pool_.push_back(Held{input_count_, std::move(*t)});
      if (pool_.size() > spec_.max_displacement) {
        const uint64_t idx = rng_.NextBelow(pool_.size());
        out_queue_.push_back(std::move(pool_[idx].tuple));
        pool_.erase(pool_.begin() + static_cast<ptrdiff_t>(idx));
      }
    } else {
      out_queue_.push_back(std::move(*t));
    }
    ForceAgedOut();
  }
}

Status DisorderInjector::Reset() {
  pool_.clear();
  late_.clear();
  out_queue_.clear();
  input_count_ = 0;
  exhausted_ = false;
  stats_ = DisorderStats{};
  rng_.Seed(spec_.seed);
  return child_->Reset();
}

}  // namespace stream
}  // namespace ausdb
