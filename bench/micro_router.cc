/**
 * @file
 * google-benchmark micro benchmarks: simulator engine throughput
 * (cycles/second) for the paper's two topologies at three load levels,
 * plus topology construction cost. These guard against performance
 * regressions in the hot per-cycle path.
 */

#include <benchmark/benchmark.h>

#include "network/NetworkBuilder.hh"
#include "obs/Metrics.hh"
#include "topology/Dragonfly.hh"
#include "topology/Mesh.hh"
#include "topology/Torus.hh"
#include "traffic/SyntheticInjector.hh"

using namespace spin;

namespace
{

void
meshStep(benchmark::State &state, bool metrics)
{
    const double rate = state.range(0) / 100.0;
    auto topo = std::make_shared<Topology>(makeMesh(8, 8));
    const ConfigPreset preset = meshPresets3Vc()[3]; // MinAdaptive+SPIN
    auto net = preset.build(topo);
    if (metrics) {
        // Null sink: measures the engine (window snapshots + per-cycle
        // tick), not serialization I/O.
        net->enableMetrics(obs::MetricsConfig{},
                           std::make_unique<obs::NullMetricsSink>());
    }
    InjectorConfig icfg;
    icfg.injectionRate = rate;
    SyntheticInjector inj(*net, Pattern::UniformRandom, icfg);
    for (int i = 0; i < 500; ++i) { // settle
        inj.tick();
        net->step();
    }
    for (auto _ : state) {
        inj.tick();
        net->step();
    }
    state.counters["cycles/s"] =
        benchmark::Counter(static_cast<double>(state.iterations()),
                           benchmark::Counter::kIsRate);
}

void
BM_MeshStep(benchmark::State &state)
{
    meshStep(state, false);
}
BENCHMARK(BM_MeshStep)->Arg(1)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMicrosecond);

/** Same workload with windowed metrics enabled; tools/check_micro_delta.py
 *  gates the off/on gap in CI. */
void
BM_MeshStepMetrics(benchmark::State &state)
{
    meshStep(state, true);
}
BENCHMARK(BM_MeshStepMetrics)->Arg(1)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMicrosecond);

void
BM_DragonflyStep(benchmark::State &state)
{
    const double rate = state.range(0) / 100.0;
    auto topo = std::make_shared<Topology>(makePaperDragonfly());
    const ConfigPreset preset = dragonflyPresets1Vc()[0];
    auto net = preset.build(topo);
    InjectorConfig icfg;
    icfg.injectionRate = rate;
    SyntheticInjector inj(*net, Pattern::UniformRandom, icfg);
    for (int i = 0; i < 200; ++i) {
        inj.tick();
        net->step();
    }
    for (auto _ : state) {
        inj.tick();
        net->step();
    }
    state.counters["cycles/s"] =
        benchmark::Counter(static_cast<double>(state.iterations()),
                           benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DragonflyStep)->Arg(1)->Arg(15)
    ->Unit(benchmark::kMicrosecond);

/**
 * Sharded-step scaling on the 1024-router torus (docs/SCALING.md):
 * the arg is the `threads` value, so CI's BENCH_sweep.json records a
 * cells/sec row per thread count and the t4/t1 ratio is the scaling
 * evidence. Uniform random at 0.30 keeps every shard busy without
 * saturating, which is where the barrier overhead would hide.
 */
void
BM_TorusStepThreads(benchmark::State &state)
{
    auto topo = std::make_shared<Topology>(makeTorus(32, 32));
    ConfigPreset preset = meshPresets3Vc()[3]; // MinAdaptive+SPIN
    preset.cfg.threads = static_cast<int>(state.range(0));
    auto net = preset.build(topo);
    InjectorConfig icfg;
    icfg.injectionRate = 0.30;
    SyntheticInjector inj(*net, Pattern::UniformRandom, icfg);
    for (int i = 0; i < 300; ++i) { // settle
        inj.tick();
        net->step();
    }
    for (auto _ : state) {
        inj.tick();
        net->step();
    }
    state.counters["cycles/s"] =
        benchmark::Counter(static_cast<double>(state.iterations()),
                           benchmark::Counter::kIsRate);
    state.counters["threads"] =
        benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_TorusStepThreads)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond)->MeasureProcessCPUTime()
    ->UseRealTime();

void
BM_BuildMesh(benchmark::State &state)
{
    for (auto _ : state) {
        Topology t = makeMesh(8, 8);
        benchmark::DoNotOptimize(t.numRouters());
    }
}
BENCHMARK(BM_BuildMesh)->Unit(benchmark::kMicrosecond);

void
BM_BuildDragonfly(benchmark::State &state)
{
    for (auto _ : state) {
        Topology t = makePaperDragonfly();
        benchmark::DoNotOptimize(t.numRouters());
    }
}
BENCHMARK(BM_BuildDragonfly)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
