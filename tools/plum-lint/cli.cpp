#include "cli.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace plumlint {

namespace {

namespace fs = std::filesystem;

bool is_cpp_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh" || ext == ".cxx";
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int usage(const Tool& tool) {
  std::fprintf(stderr,
               "usage: %s [--json FILE] [--quiet] [--list-checks] "
               "<path>...\n",
               tool.name);
  return 2;
}

}  // namespace

int run_cli(const Tool& tool, int argc, char** argv) {
  std::string json_path;
  bool quiet = false;
  std::vector<fs::path> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (++i >= argc) return usage(tool);
      json_path = argv[i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-checks") {
      for (const auto& c : tool.checks) {
        std::printf("%-*s %s\n", tool.list_width, c.name, c.summary);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(tool);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(tool);
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) return usage(tool);

  std::vector<FileInput> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (const auto& e : fs::recursive_directory_iterator(root, ec)) {
        if (e.is_regular_file() && is_cpp_file(e.path())) {
          files.push_back({e.path().generic_string(), {}});
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back({root.generic_string(), {}});
    } else {
      std::fprintf(stderr, "%s: no such file or directory: %s\n", tool.name,
                   root.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.path < b.path; });
  for (auto& f : files) {
    if (!read_file(f.path, f.content)) {
      std::fprintf(stderr, "%s: cannot read %s\n", tool.name, f.path.c_str());
      return 2;
    }
  }

  const LintResult result = tool.analyze(files);

  if (!quiet) {
    for (const auto& d : result.diagnostics) {
      if (d.suppressed) continue;
      std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line, d.check.c_str(),
                  d.message.c_str());
    }
    std::printf("%s: %d file(s), %d %s diagnostic(s), %d %s\n", tool.name,
                result.files_scanned, result.unsuppressed_count(),
                tool.left_word, result.suppressed_count(),
                tool.silenced_word);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", tool.name,
                   json_path.c_str());
      return 2;
    }
    out << to_json(result, tool.checks);
  }

  return result.unsuppressed_count() == 0 ? 0 : 1;
}

}  // namespace plumlint
