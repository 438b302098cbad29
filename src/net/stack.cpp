#include "net/stack.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace er::net {

ServingStack::ServingStack(const ConductanceNetwork& grid_net,
                           const std::vector<char>& is_port,
                           StackOptions options,
                           obs::MetricsRegistry* registry)
    : options_(options),
      registry_(&obs::registry_or_global(registry)),
      store_(registry_),
      reducer_(grid_net, is_port, options_.reduction),
      structure_(reducer_.structure()),
      frontend_(&store_, registry_),
      current_(grid_net),
      updater_(
          [this](const ConductanceNetwork& network,
                 const std::vector<index_t>& dirty_blocks) {
            reducer_.update(network, dirty_blocks);
            return reducer_.revision();
          },
          AsyncUpdater::Options{options_.staleness_bound, options_.fail_fast,
                                registry_}) {
  if (options_.attach_cache) {
    cache_ = std::make_shared<ResultCache>(options_.cache, registry_);
    store_.attach_cache(cache_);
  }
  // Publishes the initial snapshot (version 0) — the updater's worker is
  // already running but idle, so no update can race this.
  reducer_.attach_store(&store_);
}

ServingStack::~ServingStack() {
  // Drain explicitly (the updater destructor would too, but doing it here
  // makes the ordering obvious): after this no worker touches reducer_.
  try {
    updater_.drain();
  } catch (...) {
    // A latched worker error surfaces through apply_mod()/flush() during
    // normal operation; teardown must not throw.
  }
}

bool ServingStack::apply_mod(const WireModification& mod) {
  GridModification grid_mod;
  grid_mod.dirty_blocks = mod.dirty_blocks;
  grid_mod.resistance_scale = mod.resistance_scale;
  for (const index_t block : grid_mod.dirty_blocks) {
    if (block < 0 || block >= structure_.num_blocks)
      throw std::invalid_argument("modification block id " +
                                  std::to_string(block) +
                                  " out of range (grid has " +
                                  std::to_string(structure_.num_blocks) +
                                  " blocks)");
  }
  util::MutexLock lock(&mod_mutex_);
  ConductanceNetwork next =
      apply_modification(current_, structure_, grid_mod);
  // submit() consumes a copy; `next` becomes the new cumulative state only
  // if the updater accepted the edit (back-pressure leaves us untouched).
  if (!updater_.submit(next, grid_mod.dirty_blocks)) return false;
  current_ = std::move(next);
  ++accepted_;
  return true;
}

std::function<bool(const WireModification&)> ServingStack::mod_fn() {
  return [this](const WireModification& mod) { return apply_mod(mod); };
}

std::uint64_t ServingStack::mods_accepted() const {
  util::MutexLock lock(&mod_mutex_);
  return accepted_;
}

}  // namespace er::net
