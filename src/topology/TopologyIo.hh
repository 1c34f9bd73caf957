/**
 * @file
 * Topology serialization: a small line-oriented text format so custom
 * fabrics (from NoC generators, fault maps, datacenter planners) can be
 * loaded without recompiling -- one of the paper's motivating SPIN use
 * cases is exactly such externally-generated irregular topologies.
 *
 * Format (comments with '#', whitespace-separated):
 *
 *   routers <N> <ports>          # or: routers <N> list p0 p1 ... pN-1
 *   link <src> <sport> <dst> <dport> <latency> [global]
 *   bilink <a> <pa> <b> <pb> <latency> [global]
 *   nic <node> <router> <port>
 *
 * NICs must appear in node-id order (matching Topology::attachNic).
 */

#ifndef SPINNOC_TOPOLOGY_TOPOLOGYIO_HH
#define SPINNOC_TOPOLOGY_TOPOLOGYIO_HH

#include <iosfwd>
#include <string>

#include "topology/Topology.hh"

namespace spin
{

/** Parse a topology from a stream. @throws FatalError on bad input. */
Topology readTopology(std::istream &in);

/** Parse a topology from a file. @throws FatalError on bad input. */
Topology readTopologyFile(const std::string &path);

/** Serialize @p topo (finalized) in the format above. */
void writeTopology(const Topology &topo, std::ostream &out);

} // namespace spin

#endif // SPINNOC_TOPOLOGY_TOPOLOGYIO_HH
