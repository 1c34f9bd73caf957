#include "topology/TopologyIo.hh"

#include <fstream>
#include <sstream>

#include "common/Logging.hh"

namespace spin
{

Topology
readTopology(std::istream &in)
{
    Topology t;
    bool have_routers = false;
    NodeId next_node = 0;
    std::string line;
    int line_no = 0;

    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string kw;
        if (!(ls >> kw))
            continue;

        if (kw == "routers") {
            if (have_routers)
                SPIN_FATAL("line ", line_no, ": duplicate 'routers'");
            int n = 0;
            std::string second;
            if (!(ls >> n) || n <= 0)
                SPIN_FATAL("line ", line_no, ": bad router count");
            if (ls >> second) {
                if (second == "list") {
                    std::vector<int> ports(n);
                    for (int i = 0; i < n; ++i) {
                        if (!(ls >> ports[i]) || ports[i] <= 0) {
                            SPIN_FATAL("line ", line_no,
                                       ": bad per-router port list");
                        }
                    }
                    t.setRouters(ports);
                } else {
                    const int ports = std::stoi(second);
                    if (ports <= 0)
                        SPIN_FATAL("line ", line_no, ": bad port count");
                    t.setRouters(n, ports);
                }
            } else {
                SPIN_FATAL("line ", line_no, ": 'routers' needs a port "
                           "count");
            }
            have_routers = true;
        } else if (kw == "link" || kw == "bilink") {
            if (!have_routers)
                SPIN_FATAL("line ", line_no, ": link before 'routers'");
            int a, pa, b, pb;
            long lat;
            if (!(ls >> a >> pa >> b >> pb >> lat) || lat < 1)
                SPIN_FATAL("line ", line_no, ": malformed ", kw);
            std::string flag;
            const bool global = (ls >> flag) && flag == "global";
            if (kw == "bilink") {
                t.addBiLink(a, pa, b, pb, static_cast<Cycle>(lat),
                            global);
            } else {
                t.addLink(LinkSpec{a, pa, b, pb,
                                   static_cast<Cycle>(lat), global});
            }
        } else if (kw == "nic") {
            if (!have_routers)
                SPIN_FATAL("line ", line_no, ": nic before 'routers'");
            int node, router, port;
            if (!(ls >> node >> router >> port))
                SPIN_FATAL("line ", line_no, ": malformed nic");
            if (node != next_node)
                SPIN_FATAL("line ", line_no, ": NICs must appear in "
                           "node-id order (expected ", next_node, ")");
            t.attachNic(node, router, port);
            ++next_node;
        } else {
            SPIN_FATAL("line ", line_no, ": unknown keyword '", kw,
                       "'");
        }
    }
    if (!have_routers)
        SPIN_FATAL("topology stream had no 'routers' line");
    t.name = "from-file";
    t.finalize();
    return t;
}

Topology
readTopologyFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        SPIN_FATAL("cannot open topology file ", path);
    return readTopology(in);
}

void
writeTopology(const Topology &topo, std::ostream &out)
{
    out << "# spin-noc topology: " << topo.name << "\n";
    bool uniform = true;
    for (RouterId r = 1; r < topo.numRouters(); ++r)
        uniform &= topo.radix(r) == topo.radix(0);
    if (uniform) {
        out << "routers " << topo.numRouters() << " " << topo.radix(0)
            << "\n";
    } else {
        out << "routers " << topo.numRouters() << " list";
        for (RouterId r = 0; r < topo.numRouters(); ++r)
            out << " " << topo.radix(r);
        out << "\n";
    }
    for (const LinkSpec &l : topo.links()) {
        out << "link " << l.src << " " << l.srcPort << " " << l.dst
            << " " << l.dstPort << " " << l.latency
            << (l.global ? " global" : "") << "\n";
    }
    for (const NicAttach &n : topo.nics()) {
        out << "nic " << n.node << " " << n.router << " " << n.port
            << "\n";
    }
}

} // namespace spin
