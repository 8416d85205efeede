#include "sim/report.hpp"

#include <sstream>

namespace nct::sim {

std::vector<DimensionTraffic> dimension_traffic(const Program& program) {
  std::vector<DimensionTraffic> out(static_cast<std::size_t>(program.n));
  for (int d = 0; d < program.n; ++d) out[static_cast<std::size_t>(d)].dim = d;
  for (const Phase& phase : program.phases) {
    for (const SendOp& op : phase.sends) {
      for (const int d : op.route) {
        auto& t = out[static_cast<std::size_t>(d)];
        t.messages += 1;
        t.elements += op.elements();
      }
    }
  }
  return out;
}

std::string format_report(const Program& program, const RunResult& result) {
  std::ostringstream os;
  os << "total time: " << result.total_time * 1e3 << " ms  ("
     << result.total_sends << " messages, " << result.total_hops << " hops, copy "
     << result.total_copy_time * 1e3 << " ms)\n";
  os << "phases:\n";
  for (const PhaseStats& ph : result.phases) {
    os << "  " << ph.label << ": " << ph.duration() * 1e3 << " ms, " << ph.sends
       << " sends, " << ph.elements << " elements";
    if (ph.copy_time > 0.0) os << ", copy " << ph.copy_time * 1e3 << " ms";
    os << "\n";
  }
  os << "traffic by dimension (message-hops / element-hops):\n";
  for (const DimensionTraffic& t : dimension_traffic(program)) {
    os << "  dim " << t.dim << ": " << t.messages << " / " << t.elements << "\n";
  }
  os << "max cumulative link busy time: " << result.max_link_busy * 1e3 << " ms\n";
  return os.str();
}

std::string format_report(const Program& program, const RunResult& result,
                          const obs::MetricsReport& metrics) {
  return format_report(program, result) + metrics.format();
}

}  // namespace nct::sim
