#pragma once
// FleetEngine::run with the router supplied by the caller (internal to
// src/fleet; tests include it to run one fleet under a router wrapper, for
// example one that forces per-arrival idling by reporting reads_thermal()).
// FleetEngine::run is this function with make_router(config().router).

#include <cstdint>
#include <memory>

#include "fleet/engine.hpp"
#include "fleet/router.hpp"

namespace lotus::fleet {

[[nodiscard]] FleetTrace run_routed(const FleetEngine& engine,
                                    const FleetEngine::GovernorFactory& make_governor,
                                    std::uint64_t governor_seed_root,
                                    std::unique_ptr<Router> router);

} // namespace lotus::fleet
