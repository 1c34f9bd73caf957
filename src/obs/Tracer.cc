#include "obs/Tracer.hh"

#include "obs/Json.hh"

namespace spin::obs
{

namespace
{

/** See Tracer::stageInto(). */
thread_local std::vector<TraceEvent> *tlsStage = nullptr;

} // namespace

const char *
categoryName(std::uint32_t cat)
{
    if (cat & kCatFlit)
        return "flit";
    if (cat & kCatSpin)
        return "spin";
    if (cat & kCatLink)
        return "link";
    if (cat & kCatForensic)
        return "forensic";
    if (cat & kCatFault)
        return "fault";
    return "other";
}

// ---------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------

std::unique_ptr<JsonlSink>
JsonlSink::open(const std::string &path)
{
    auto sink = std::unique_ptr<JsonlSink>(new JsonlSink());
    sink->own_.open(path);
    if (!sink->own_)
        return nullptr;
    sink->os_ = &sink->own_;
    return sink;
}

void
JsonlSink::write(const TraceEvent &e)
{
    std::ostream &os = *os_;
    os << "{\"t\":" << e.cycle << ",\"cat\":\""
       << categoryName(e.category) << "\",\"ev\":\"" << e.name << '"';
    if (e.router != kInvalidId)
        os << ",\"router\":" << e.router;
    if (e.packet != 0)
        os << ",\"pkt\":" << e.packet;
    if (e.port != kInvalidId)
        os << ",\"port\":" << e.port;
    if (e.vc != kInvalidId)
        os << ",\"vc\":" << e.vc;
    if (e.arg0 != -1)
        os << ",\"a0\":" << e.arg0;
    if (e.arg1 != -1)
        os << ",\"a1\":" << e.arg1;
    if (e.detail)
        os << ",\"detail\":\"" << JsonValue::escape(e.detail) << '"';
    os << "}\n";
}

// ---------------------------------------------------------------------
// ChromeTraceSink
// ---------------------------------------------------------------------

ChromeTraceSink::ChromeTraceSink(std::ostream &os) : os_(&os)
{
    begin();
}

std::unique_ptr<ChromeTraceSink>
ChromeTraceSink::open(const std::string &path)
{
    auto sink = std::unique_ptr<ChromeTraceSink>(new ChromeTraceSink());
    sink->own_.open(path);
    if (!sink->own_)
        return nullptr;
    sink->os_ = &sink->own_;
    sink->begin();
    return sink;
}

ChromeTraceSink::~ChromeTraceSink()
{
    finish();
}

void
ChromeTraceSink::begin()
{
    *os_ << "{\"traceEvents\":[";
}

void
ChromeTraceSink::write(const TraceEvent &e)
{
    if (finished_)
        return;
    std::ostream &os = *os_;
    if (!first_)
        os << ",";
    first_ = false;
    // One complete slice per event; router id as the thread track so
    // each router gets its own swimlane in the viewer.
    os << "\n{\"name\":\"" << e.name << "\",\"cat\":\""
       << categoryName(e.category) << "\",\"ph\":\"X\",\"ts\":" << e.cycle
       << ",\"dur\":1,\"pid\":0,\"tid\":"
       << (e.router != kInvalidId ? e.router : -1) << ",\"args\":{";
    bool first_arg = true;
    const auto arg = [&](const char *key, std::int64_t v) {
        if (!first_arg)
            os << ",";
        first_arg = false;
        os << '"' << key << "\":" << v;
    };
    if (e.packet != 0)
        arg("pkt", static_cast<std::int64_t>(e.packet));
    if (e.port != kInvalidId)
        arg("port", e.port);
    if (e.vc != kInvalidId)
        arg("vc", e.vc);
    if (e.arg0 != -1)
        arg("a0", e.arg0);
    if (e.arg1 != -1)
        arg("a1", e.arg1);
    if (e.detail) {
        if (!first_arg)
            os << ",";
        first_arg = false;
        os << "\"detail\":\"" << JsonValue::escape(e.detail) << '"';
    }
    os << "}}";
}

void
ChromeTraceSink::finish()
{
    if (finished_ || !os_)  // os_ is null when open() failed
        return;
    finished_ = true;
    *os_ << "\n],\"displayTimeUnit\":\"ns\"}\n";
    os_->flush();
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

Tracer::Tracer(std::unique_ptr<TraceSink> sink) : sink_(std::move(sink))
{
}

Tracer::~Tracer()
{
    if (sink_)
        sink_->flush();
}

void
Tracer::record(const TraceEvent &e)
{
    if (tlsStage != nullptr) {
        tlsStage->push_back(e);
        return;
    }
    ++recorded_;
    sink_->write(e);
}

void
Tracer::stageInto(std::vector<TraceEvent> *buf)
{
    tlsStage = buf;
}

} // namespace spin::obs
