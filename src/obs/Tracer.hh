/**
 * @file
 * Event tracer with pluggable sinks.
 *
 * The hot-path contract: components hold no tracer state; they ask the
 * Network for its `Tracer *` and skip everything on nullptr, so a build
 * with tracing disabled pays exactly one predicted branch per hook.
 * An attached tracer writes every event it is handed to its sink; each
 * event names its category, so consumers filter afterwards.
 *
 * Two sinks ship with the simulator:
 *  - JsonlSink: one JSON object per line -- trivially greppable and
 *    streamable into any analysis script.
 *  - ChromeTraceSink: the Chrome trace_event JSON array format, loadable
 *    in chrome://tracing and https://ui.perfetto.dev (router = track).
 */

#ifndef SPINNOC_OBS_TRACER_HH
#define SPINNOC_OBS_TRACER_HH

#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/Packet.hh"
#include "obs/TraceEvent.hh"

namespace spin::obs
{

/** Destination for recorded events. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void write(const TraceEvent &e) = 0;
    virtual void flush() {}
};

/** Newline-delimited JSON: one event object per line. */
class JsonlSink : public TraceSink
{
  public:
    /** Write to a borrowed stream (e.g. a stringstream in tests). */
    explicit JsonlSink(std::ostream &os) : os_(&os) {}
    /** Open @p path for writing; returns nullptr on failure. */
    static std::unique_ptr<JsonlSink> open(const std::string &path);

    void write(const TraceEvent &e) override;
    void flush() override { os_->flush(); }

  private:
    JsonlSink() = default;
    std::ofstream own_;
    std::ostream *os_ = nullptr;
};

/**
 * Chrome trace_event array format. Every event becomes a 1-cycle
 * complete ("X") slice with pid = 0 and tid = router id, so each
 * router renders as its own track; `ts` is the simulation cycle.
 * The closing bracket is written by finish() (or the destructor).
 */
class ChromeTraceSink : public TraceSink
{
  public:
    explicit ChromeTraceSink(std::ostream &os);
    static std::unique_ptr<ChromeTraceSink> open(const std::string &path);
    ~ChromeTraceSink() override;

    void write(const TraceEvent &e) override;
    void flush() override { os_->flush(); }
    /** Write the trailer; further writes are ignored. Idempotent. */
    void finish();

  private:
    ChromeTraceSink() = default;
    void begin();
    std::ofstream own_;
    std::ostream *os_ = nullptr;
    bool first_ = true;
    bool finished_ = false;
};

/** See file comment. */
class Tracer
{
  public:
    explicit Tracer(std::unique_ptr<TraceSink> sink);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Write @p e to the sink. When this thread has a staging buffer
     *  installed (stageInto), the event is appended there instead and
     *  reaches the sink when the owner replays it through record() on
     *  the coordinating thread. */
    void record(const TraceEvent &e);

    /**
     * Redirect this thread's record() calls into @p buf; nullptr
     * restores direct recording. Installed around the parallel phases
     * of the sharded step loop so worker threads never touch the sink;
     * the staged events are replayed in shard order at the phase
     * barrier, keeping trace output bit-identical for any thread count
     * (docs/SCALING.md). Thread-local and tracer-agnostic: a worker
     * serves exactly one network while staged.
     */
    static void stageInto(std::vector<TraceEvent> *buf);

    /// @name Convenience emitters (build the event in place)
    /// @{
    /** Flit-lifecycle event. */
    void
    flit(Cycle now, const char *name, RouterId router, const Packet &pkt,
         PortId port, VcId vc, std::int64_t arg0 = -1,
         std::int64_t arg1 = -1)
    {
        TraceEvent e;
        e.cycle = now;
        e.category = kCatFlit;
        e.name = name;
        e.router = router;
        e.packet = pkt.id;
        e.port = port;
        e.vc = vc;
        e.arg0 = arg0;
        e.arg1 = arg1;
        record(e);
    }

    /** SPIN-protocol event. */
    void
    spin(Cycle now, const char *name, RouterId router,
         const char *detail = nullptr, std::int64_t arg0 = -1,
         std::int64_t arg1 = -1)
    {
        TraceEvent e;
        e.cycle = now;
        e.category = kCatSpin;
        e.name = name;
        e.router = router;
        e.detail = detail;
        e.arg0 = arg0;
        e.arg1 = arg1;
        record(e);
    }
    /// @}

    void flush() { sink_->flush(); }

    /** Events written to the sink so far. */
    std::uint64_t recorded() const { return recorded_; }

  private:
    std::unique_ptr<TraceSink> sink_;
    std::uint64_t recorded_ = 0;
};

} // namespace spin::obs

#endif // SPINNOC_OBS_TRACER_HH
