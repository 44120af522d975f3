// roclk_lint driver.
//
//   roclk_lint [options] [<dir-or-file>...]
//
//   <dir-or-file>...        per-line rules (round, rng, naked-new, ...)
//                           over each tree, as before
//   --project <root>        run the project passes (layering,
//                           determinism, lock discipline) over
//                           <root>/{include,src,tools,bench}
//   --design <file>         stream-key registry source
//                           (default: <root>/DESIGN.md)
//   --sarif <out>           write a SARIF 2.1.0 log of every finding
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.  CI runs:
//   roclk_lint include src tools bench examples --project .
//              --sarif roclk_lint.sarif
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"
#include "passes.hpp"
#include "project.hpp"
#include "registry.hpp"
#include "sarif.hpp"

namespace {

namespace fs = std::filesystem;
using roclk::lint::Finding;

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error("roclk_lint: cannot read " + path.string());
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: roclk_lint [--project <root>] [--design <file>]\n"
      "                  [--sarif <out>] [<dir-or-file>...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  fs::path project_root;
  fs::path design_path;
  fs::path sarif_path;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    const auto value = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--project") {
      const char* v = value();
      if (v == nullptr) return usage();
      project_root = v;
    } else if (arg == "--design") {
      const char* v = value();
      if (v == nullptr) return usage();
      design_path = v;
    } else if (arg == "--sarif") {
      const char* v = value();
      if (v == nullptr) return usage();
      sarif_path = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "roclk_lint: unknown option %s\n", argv[i]);
      return usage();
    } else {
      roots.emplace_back(argv[i]);
    }
  }
  if (roots.empty() && project_root.empty()) return usage();

  try {
    std::vector<Finding> findings;
    // Raw text per reported path, for fingerprinting.
    std::map<std::string, std::string> texts;

    // --- per-line rules over the positional trees (legacy behaviour).
    for (const auto& root : roots) {
      std::vector<fs::path> files;
      if (fs::is_regular_file(root)) {
        files.push_back(root);
      } else if (fs::is_directory(root)) {
        for (const auto& entry : fs::recursive_directory_iterator(root)) {
          if (!entry.is_regular_file()) continue;
          const std::string ext = entry.path().extension().string();
          if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc") {
            files.push_back(entry.path());
          }
        }
      } else {
        throw std::runtime_error("roclk_lint: no such file or directory: " +
                                 root.string());
      }
      std::sort(files.begin(), files.end());
      for (const auto& file : files) {
        const fs::path display = fs::proximate(file, root.parent_path());
        std::string text = read_file(file);
        auto file_findings = roclk::lint::lint_source(display, text);
        findings.insert(findings.end(),
                        std::make_move_iterator(file_findings.begin()),
                        std::make_move_iterator(file_findings.end()));
        texts.emplace(display.generic_string(), std::move(text));
      }
    }

    // --- project passes.
    if (!project_root.empty()) {
      const auto files = roclk::lint::load_project(project_root);
      for (const auto& file : files) {
        texts.emplace(file.path.generic_string(), file.text);
      }
      const fs::path design =
          design_path.empty() ? project_root / "DESIGN.md" : design_path;
      roclk::lint::TagRegistry registry;
      const roclk::lint::TagRegistry* registry_ptr = nullptr;
      fs::path registry_display = "DESIGN.md";
      if (fs::is_regular_file(design)) {
        std::string error;
        std::string design_text = read_file(design);
        registry = roclk::lint::parse_tag_registry(design_text, &error);
        if (!error.empty()) {
          std::fprintf(stderr, "%s: %s\n", design.string().c_str(),
                       error.c_str());
          return 2;
        }
        registry_ptr = &registry;
        registry_display = fs::proximate(design, project_root);
        texts.emplace(registry_display.generic_string(),
                      std::move(design_text));
      }
      auto project_findings =
          roclk::lint::check_project(files, registry_ptr, registry_display);
      findings.insert(findings.end(),
                      std::make_move_iterator(project_findings.begin()),
                      std::make_move_iterator(project_findings.end()));
    }

    // --- fingerprints, reports.
    const auto line_of = [&](const fs::path& path,
                             std::size_t line) -> std::string {
      const auto it = texts.find(path.generic_string());
      if (it == texts.end() || line == 0) return {};
      std::istringstream in{it->second};
      std::string text;
      for (std::size_t n = 1; std::getline(in, text); ++n) {
        if (n == line) return text;
      }
      return {};
    };
    const auto annotated = roclk::lint::annotate_findings(findings, line_of);
    for (const auto& f : annotated) {
      std::fprintf(stderr, "%s:%zu: [%s] %s\n",
                   f.finding.file.generic_string().c_str(), f.finding.line,
                   f.finding.rule.c_str(), f.finding.message.c_str());
    }

    if (!sarif_path.empty()) {
      std::ofstream out{sarif_path, std::ios::binary};
      if (!out) {
        throw std::runtime_error("roclk_lint: cannot write " +
                                 sarif_path.string());
      }
      out << roclk::lint::to_sarif(annotated);
    }
    if (!annotated.empty()) {
      std::fprintf(stderr, "roclk_lint: %zu finding(s)\n", annotated.size());
      return 1;
    }
    std::printf("roclk_lint: clean\n");
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  }
}
