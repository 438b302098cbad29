#include "pg/netlist.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace er {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("netlist line " + std::to_string(line_no) + ": " +
                           why);
}

/// A node id read from the file: in [0, INT32_MAX - 1], so that the node
/// count, max id + 1, fits an index_t (read_edge_list checks the same).
index_t node_id(long long v, std::size_t line_no) {
  if (v < 0 || v > std::numeric_limits<index_t>::max() - 1)
    fail(line_no, "node id out of range");
  return static_cast<index_t>(v);
}

}  // namespace

PowerGrid read_netlist(std::istream& in) {
  PowerGrid pg;
  index_t max_node = -1;
  std::string line;
  std::size_t line_no = 0;

  auto track = [&max_node](index_t v) { max_node = std::max(max_node, v); };

  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (head.empty() || head[0] == '*' || head[0] == '#') continue;
    const char kind = static_cast<char>(
        std::tolower(static_cast<unsigned char>(head[0])));
    if (head == ".end" || head == ".END") break;
    if (head[0] == '.') continue;  // other directives ignored

    switch (kind) {
      case 'r': {
        long long a = 0, b = 0;
        double value = 0.0;
        if (!(ls >> a >> b >> value)) fail(line_no, "malformed resistor");
        if (a == b) fail(line_no, "resistor endpoints equal");
        if (value <= 0.0) fail(line_no, "resistance must be positive");
        pg.resistors.push_back({node_id(a, line_no), node_id(b, line_no),
                                static_cast<real_t>(value)});
        track(pg.resistors.back().a);
        track(pg.resistors.back().b);
        break;
      }
      case 'c': {
        long long node = 0, gnd = 0;
        double value = 0.0;
        if (!(ls >> node >> gnd >> value)) fail(line_no, "malformed capacitor");
        if (gnd != 0) fail(line_no, "capacitors must connect to ground (0)");
        if (value < 0.0) fail(line_no, "capacitance must be nonnegative");
        pg.capacitors.push_back({node_id(node, line_no), static_cast<real_t>(value)});
        track(pg.capacitors.back().node);
        break;
      }
      case 'i': {
        long long node = 0, gnd = 0;
        double dc = 0.0;
        if (!(ls >> node >> gnd >> dc)) fail(line_no, "malformed load");
        if (gnd != 0) fail(line_no, "loads must connect to ground (0)");
        CurrentLoad load;
        load.node = node_id(node, line_no);
        load.dc = static_cast<real_t>(dc);
        double pulse = 0.0, period = 0.0, duty = 0.0;
        if (ls >> pulse >> period >> duty) {
          load.pulse = static_cast<real_t>(pulse);
          load.period = static_cast<real_t>(period);
          load.duty = static_cast<real_t>(duty);
        }
        pg.loads.push_back(load);
        track(load.node);
        break;
      }
      case 'v': {
        long long node = 0, gnd = 0;
        double vdd = 0.0;
        if (!(ls >> node >> gnd >> vdd)) fail(line_no, "malformed pad");
        if (gnd != 0) fail(line_no, "pads must reference ground (0)");
        Pad pad;
        pad.node = node_id(node, line_no);
        double conductance = 0.0;
        if (ls >> conductance) {
          if (conductance <= 0.0) fail(line_no, "pad conductance must be > 0");
          pad.conductance = static_cast<real_t>(conductance);
        }
        pg.vdd = static_cast<real_t>(vdd);
        pg.pads.push_back(pad);
        track(pad.node);
        break;
      }
      default:
        fail(line_no, "unknown element '" + head + "'");
    }
  }
  pg.num_nodes = max_node + 1;
  if (!pg.validate())
    throw std::runtime_error("netlist: resulting grid failed validation");
  return pg;
}

PowerGrid read_netlist_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open netlist: " + path);
  return read_netlist(in);
}

void write_netlist(const PowerGrid& pg, std::ostream& out) {
  out.precision(17);  // lossless double round trip
  out << "* power grid netlist: " << pg.num_nodes << " nodes, "
      << pg.resistors.size() << " resistors\n";
  std::size_t k = 0;
  for (const auto& r : pg.resistors)
    out << 'R' << k++ << ' ' << r.a << ' ' << r.b << ' ' << r.resistance
        << '\n';
  k = 0;
  for (const auto& c : pg.capacitors)
    out << 'C' << k++ << ' ' << c.node << " 0 " << c.capacitance << '\n';
  k = 0;
  for (const auto& l : pg.loads)
    out << 'I' << k++ << ' ' << l.node << " 0 " << l.dc << ' ' << l.pulse
        << ' ' << l.period << ' ' << l.duty << '\n';
  k = 0;
  for (const auto& p : pg.pads)
    out << 'V' << k++ << ' ' << p.node << " 0 " << pg.vdd << ' '
        << p.conductance << '\n';
  out << ".end\n";
}

void write_netlist_file(const PowerGrid& pg, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write netlist: " + path);
  write_netlist(pg, out);
}

}  // namespace er
