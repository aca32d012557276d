#include "core/trace.hpp"

#include <array>
#include <charconv>
#include <istream>
#include <ostream>

#include "util/check.hpp"

namespace treecache {

TraceStats stats(const Trace& trace, std::size_t tree_size) {
  TraceStats s;
  std::vector<std::uint8_t> seen(tree_size, 0);
  for (const Request& r : trace) {
    TC_CHECK(r.node < tree_size, "request to node outside the tree");
    if (r.sign == Sign::kPositive) {
      ++s.positives;
    } else {
      ++s.negatives;
    }
    if (!seen[r.node]) {
      seen[r.node] = 1;
      ++s.distinct_nodes;
    }
  }
  return s;
}

void append_repeated(Trace& trace, Request request, std::size_t count) {
  trace.insert(trace.end(), count, request);
}

void save_trace(std::ostream& os, std::span<const Request> trace) {
  for (const Request& r : trace) {
    os << (r.sign == Sign::kPositive ? '+' : '-') << r.node << '\n';
  }
}

Request parse_request_line(const std::string& line, std::size_t line_number,
                           std::size_t tree_size) {
  const auto fail = [&](const std::string& what) -> CheckFailure {
    return CheckFailure("trace line " + std::to_string(line_number) + ": " +
                        what + " (got \"" + line + "\")");
  };
  if (line.empty() || (line[0] != '+' && line[0] != '-')) {
    throw fail("request must start with + or -");
  }
  const Sign sign = line[0] == '+' ? Sign::kPositive : Sign::kNegative;
  std::uint64_t node = 0;
  const char* const first = line.data() + 1;
  const char* const last = line.data() + line.size();
  const auto [end, ec] = std::from_chars(first, last, node);
  if (ec != std::errc{} || end != last || first == last) {
    throw fail("expected an unsigned node id after the sign");
  }
  if (node >= tree_size) {
    throw fail("node " + std::to_string(node) +
               " lies outside the tree (size " + std::to_string(tree_size) +
               ")");
  }
  return Request{static_cast<NodeId>(node), sign};
}

std::size_t read_requests(std::istream& is, std::span<Request> buffer,
                          std::size_t tree_size, std::size_t& line_number) {
  std::size_t n = 0;
  std::string line;
  while (n < buffer.size() && std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    buffer[n++] = parse_request_line(line, line_number, tree_size);
  }
  TC_CHECK(!is.bad(),
           "trace read error near line " + std::to_string(line_number));
  return n;
}

Trace load_trace(std::istream& is, std::size_t tree_size) {
  Trace trace;
  std::size_t line_number = 0;
  std::array<Request, 1024> buffer;
  while (const std::size_t n =
             read_requests(is, buffer, tree_size, line_number)) {
    trace.insert(trace.end(), buffer.begin(), buffer.begin() + n);
  }
  return trace;
}

}  // namespace treecache
