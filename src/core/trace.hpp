// Request traces (inputs of the online problem) and helpers.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/request.hpp"

namespace treecache {

/// An input instance: one request per round, rounds numbered from 1.
using Trace = std::vector<Request>;

struct TraceStats {
  std::size_t positives = 0;
  std::size_t negatives = 0;
  std::size_t distinct_nodes = 0;
};

/// Counts request kinds and distinct requested nodes.
[[nodiscard]] TraceStats stats(const Trace& trace, std::size_t tree_size);

/// Appends `count` copies of a request (e.g. the α-chunk of negative
/// requests modelling one rule update, Appendix B).
void append_repeated(Trace& trace, Request request, std::size_t count);

/// Serializes to a text stream, one request per line: "+12" / "-3".
void save_trace(std::ostream& os, std::span<const Request> trace);

/// Parses one non-empty line of the save_trace format ("+12" / "-3").
/// Throws CheckFailure naming the 1-based `line_number` (and echoing the
/// offending line) on malformed input or node ids >= tree_size.
[[nodiscard]] Request parse_request_line(const std::string& line,
                                         std::size_t line_number,
                                         std::size_t tree_size);

/// The one line loop behind load_trace and FileTraceSource: parses
/// save_trace-format lines from `is` into `buffer` until it is full or the
/// stream ends, skipping empty lines, and returns how many requests it
/// wrote. `line_number` counts the lines read so far, across calls. A
/// stream read error throws CheckFailure: it must not read as a clean end
/// of stream, or a run would report costs for a truncated trace.
[[nodiscard]] std::size_t read_requests(std::istream& is,
                                        std::span<Request> buffer,
                                        std::size_t tree_size,
                                        std::size_t& line_number);

/// Parses the save_trace format, streaming line by line through
/// read_requests. Errors carry the line number via parse_request_line.
[[nodiscard]] Trace load_trace(std::istream& is, std::size_t tree_size);

}  // namespace treecache
