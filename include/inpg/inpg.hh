/**
 * @file
 * Umbrella header of libinpg: the public API of the iNPG many-core
 * simulation library.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   #include <inpg/inpg.hh>
 *
 *   inpg::SystemConfig cfg;          // paper Table 1 defaults
 *   cfg.mechanism = inpg::Mechanism::Inpg;
 *
 *   inpg::RunConfig rc;
 *   rc.profile = inpg::benchmarkByName("freq");
 *   rc.system = cfg;
  *   inpg::RunRecord r = inpg::runBenchmark(rc);
 *
 * Layering (each header usable on its own; lower layers never include
 * higher ones):
 *   common/    types, logging, RNG, config, stats, histogram
 *   sim/       cycle kernel + event queue
 *   telemetry/ observers over all of the above: JSON builder,
 *              Chrome-trace sink, packet-lifetime tracker, LCO
 *              attribution, stats registry. Sits beside noc/coh/sync
 *              (they hold nullable observer pointers into it);
 *              enabling it never changes simulated results.
 *   noc/       Garnet-style mesh NoC (flits, VCs, routers, NIs)
 *   coh/       directory MOESI coherence substrate
 *   inpg/      big routers: in-network packet generation (the paper's
 *              contribution), locking barrier table, synthesis model
 *   ocor/      OCOR baseline priority policy
 *   sync/      lock primitives (TAS/TTL/ABQL/MCS/QSL) + thread contexts
 *   workload/  PARSEC / SPEC OMP2012 benchmark profiles
 *   harness/   system builder (owns the Telemetry facade), mechanisms,
 *              experiment runner; SystemConfig::impl / ::telemetry are
 *              the two public configuration switches
 */

#ifndef INPG_INPG_HH
#define INPG_INPG_HH

#include "coh/coherent_system.hh"
#include "coh/golden_memory.hh"
#include "common/config.hh"
#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "harness/table_printer.hh"
#include "inpg/big_router.hh"
#include "inpg/lock_barrier_table.hh"
#include "inpg/synthesis_model.hh"
#include "noc/network.hh"
#include "ocor/ocor_policy.hh"
#include "sim/simulator.hh"
#include "sync/lock_manager.hh"
#include "sync/thread_context.hh"
#include "telemetry/json.hh"
#include "telemetry/lco_attribution.hh"
#include "telemetry/packet_lifetime.hh"
#include "telemetry/stats_registry.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_event.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

#endif // INPG_INPG_HH
