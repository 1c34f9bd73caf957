/**
 * @file
 * Declarative experiment-campaign specification.
 *
 * A sweep spec is the cross product
 *
 *     presets x patterns x rates x seeds
 *
 * over one topology: every combination is one *cell*, an independent
 * single-network simulation with its own deterministically derived RNG
 * seed. Specs are JSON documents (grammar in docs/SWEEP.md); the
 * paper's figure sweeps ship as built-in specs, so
 * `spin_sweep --spec fig07` regenerates Fig. 7.
 *
 * Determinism contract: a cell's seed depends only on the cell's
 * coordinates (preset name, pattern, rate, seed-list entry) and the
 * spec's seedBase -- never on worker count, execution order, or which
 * cells were resumed from disk. See docs/SWEEP.md.
 */

#ifndef SPINNOC_EXP_SWEEPSPEC_HH
#define SPINNOC_EXP_SWEEPSPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/Types.hh"
#include "network/NetworkBuilder.hh"
#include "obs/Json.hh"
#include "topology/Topology.hh"
#include "traffic/TrafficPattern.hh"

namespace spin::exp
{

/** One fully expanded simulation: a point of the campaign product. */
struct Cell
{
    std::size_t index = 0; //!< position in the deterministic expansion
    std::string preset;    //!< registry name of the (config, routing) row
    Pattern pattern = Pattern::UniformRandom;
    double rate = 0.0;          //!< offered load, flits/node/cycle
    std::uint64_t seed = 1;     //!< the seed-list entry
    std::uint64_t netSeed = 1;  //!< derived per-cell network seed
    int faultCount = 0;         //!< random link failures to inject
    bool reliability = false;   //!< end-to-end reliable delivery on
    std::string id;             //!< unique, filesystem-safe cell name
};

/** See file comment. */
struct SweepSpec
{
    std::string name;
    std::string topology; //!< e.g. "mesh8x8", "torus4x4", "dragonfly"
    std::vector<std::string> presets;
    std::vector<Pattern> patterns;
    std::vector<double> rates;
    std::vector<std::uint64_t> seeds = {1};
    /**
     * Fault dimension: each entry is a count of random link failures
     * injected at faultCycle (0 = the fault-free baseline). A cell with
     * faultCount == 0 keeps the exact id and netSeed it had before the
     * dimension existed, so adding faults to a spec never perturbs its
     * baseline cells.
     */
    std::vector<int> faults = {0};
    /** Injection cycle for the fault dimension (measured from reset). */
    Cycle faultCycle = 1000;
    /**
     * Reliability dimension ("reliability": ["off", "on"]): each entry
     * toggles the end-to-end reliable-delivery protocol
     * (docs/FAULTS.md) for its cells. Off-cells keep the exact id,
     * netSeed, and spec echo they had before the dimension existed, so
     * adding "on" to a spec never perturbs its baseline cells or
     * invalidates their resume caches.
     */
    std::vector<bool> reliability = {false};
    Cycle warmup = 2000;
    Cycle measure = 4000;
    /** Latency above which a point counts as saturated. */
    double latencyCap = 400.0;
    /** Mixed into every cell seed; lets one spec rerun independently. */
    std::uint64_t seedBase = 0;

    /**
     * Parse a spec document. On error returns false and sets @p err;
     * the returned spec is validated (known topology, presets,
     * patterns; non-empty product).
     */
    static bool fromJson(const obs::JsonValue &doc, SweepSpec &out,
                         std::string &err);
    /** Parse a spec file (JSON). */
    static bool fromFile(const std::string &path, SweepSpec &out,
                         std::string &err);

    /** Echo of the spec (round-trips through fromJson). */
    obs::JsonValue toJson() const;

    /** Expand the product into cells, in deterministic order. */
    std::vector<Cell> expand() const;

    /** Validate against the registries. Empty string when ok. */
    std::string validate() const;
};

/// @name Registries
/// @{
/**
 * Every named (config, routing) row a spec may reference: the Table III
 * presets plus the vnet-1 rows Fig. 9 sweeps. Order is stable.
 */
const std::vector<ConfigPreset> &presetRegistry();
/** Find a registry preset by name; nullptr when absent. */
const ConfigPreset *findPreset(const std::string &name);

/**
 * Build a topology from its spec name: "mesh<X>x<Y>", "torus<X>x<Y>",
 * "ring<N>", "dragonfly" (the paper's 1024-node p=4 a=8 h=4 g=32), or
 * "dragonfly-p<P>a<A>h<H>g<G>" (the name makeDragonfly gives it).
 * Returns nullptr with @p err set for unknown names.
 */
std::shared_ptr<const Topology> makeTopologyByName(const std::string &name,
                                                   std::string &err);
/// @}

/// @name Built-in specs
/// @{
/** Names of the shipped campaign specs (paper figures + ci-smoke). */
std::vector<std::string> builtinSpecNames();
/** Load a built-in spec; false when @p name is not built in. */
bool builtinSpec(const std::string &name, SweepSpec &out);
/// @}

/**
 * The per-cell seed derivation (exposed for tests): a 64-bit FNV-1a /
 * splitmix64 mix of the cell coordinates and the spec seedBase.
 */
std::uint64_t deriveCellSeed(std::uint64_t seed_base,
                             const std::string &preset, Pattern pattern,
                             double rate, std::uint64_t seed_entry);

} // namespace spin::exp

#endif // SPINNOC_EXP_SWEEPSPEC_HH
