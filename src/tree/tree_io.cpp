#include "tree/tree_io.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/parse.hpp"

namespace treecache {

std::string to_parent_string(const Tree& tree) {
  std::ostringstream os;
  const std::vector<NodeId> parents = tree.parent_array();
  for (std::size_t i = 0; i < parents.size(); ++i) {
    if (i > 0) os << ' ';
    if (parents[i] == kNoNode) {
      os << -1;
    } else {
      os << parents[i];
    }
  }
  return os.str();
}

Tree from_parent_string(const std::string& text) {
  // Tokens split on the whitespace `istream >>` skips; each is "-1" (the
  // root) or a node id, parsed strictly so that no id wraps into range.
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  const std::string_view view(text);
  std::vector<NodeId> parents;
  for (std::size_t start = view.find_first_not_of(kSpace);
       start != std::string_view::npos;
       start = view.find_first_not_of(kSpace, start)) {
    const std::size_t stop = std::min(view.find_first_of(kSpace, start),
                                      view.size());
    const std::string_view token = view.substr(start, stop - start);
    start = stop;
    if (token == "-1") {
      parents.push_back(kNoNode);
      continue;
    }
    const auto where = [&] {
      return "parent of node " + std::to_string(parents.size()) + " ('" +
             std::string(token) + "')";
    };
    const std::optional<std::uint64_t> id = parse_u64(token);
    TC_CHECK(id.has_value(), where() + " is neither a node id nor -1");
    TC_CHECK(*id < kNoNode, where() + " is past the largest node id");
    parents.push_back(static_cast<NodeId>(*id));
  }
  TC_CHECK(!parents.empty(), "empty parent string");
  return Tree(std::move(parents));
}

namespace {
void render_ascii(const Tree& tree, NodeId v, const std::string& indent,
                  bool last, const NodeAnnotator& annotate,
                  std::ostringstream& os) {
  if (v == tree.root()) {
    os << v;
  } else {
    os << indent << (last ? "└─ " : "├─ ") << v;
  }
  if (annotate) {
    const std::string note = annotate(v);
    if (!note.empty()) os << ' ' << note;
  }
  os << '\n';
  const std::string child_indent =
      (v == tree.root()) ? std::string{}
                         : indent + (last ? "   " : "│  ");
  const auto kids = tree.children(v);
  for (auto it = kids.begin(); it != kids.end();) {
    const NodeId c = *it;
    render_ascii(tree, c, child_indent, ++it == kids.end(), annotate, os);
  }
}
}  // namespace

std::string to_ascii(const Tree& tree, const NodeAnnotator& annotate) {
  std::ostringstream os;
  render_ascii(tree, tree.root(), "", true, annotate, os);
  return os.str();
}

std::string to_dot(const Tree& tree, const NodeAnnotator& annotate) {
  std::ostringstream os;
  os << "digraph T {\n  node [shape=circle];\n";
  for (NodeId v = 0; v < tree.size(); ++v) {
    os << "  n" << v << " [label=\"" << v;
    if (annotate) {
      const std::string note = annotate(v);
      if (!note.empty()) os << "\\n" << note;
    }
    os << "\"];\n";
  }
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (tree.parent(v) != kNoNode) {
      os << "  n" << tree.parent(v) << " -> n" << v << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace treecache
