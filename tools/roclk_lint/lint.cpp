#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>
#include <utility>

namespace roclk::lint {

namespace {

bool path_ends_with(const std::filesystem::path& path, std::string_view tail) {
  const std::string s = path.generic_string();
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

bool is_header(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".h";
}

bool word_before_is(std::string_view text, std::size_t pos,
                    std::string_view word) {
  while (pos > 0 && std::isspace(static_cast<unsigned char>(text[pos - 1]))) {
    --pos;
  }
  return pos >= word.size() &&
         text.compare(pos - word.size(), word.size(), word) == 0 &&
         (pos == word.size() ||
          !std::isalnum(static_cast<unsigned char>(text[pos - word.size() - 1])));
}

bool char_before_is(std::string_view text, std::size_t pos, char c) {
  while (pos > 0 && std::isspace(static_cast<unsigned char>(text[pos - 1]))) {
    --pos;
  }
  return pos > 0 && text[pos - 1] == c;
}

}  // namespace

/// Rules waived on a given 1-based line via `roclk-lint: allow(rule)`.
std::vector<std::pair<std::size_t, std::string>> collect_waivers(
    std::string_view source) {
  std::vector<std::pair<std::size_t, std::string>> waivers;
  static const std::regex kAllow{R"(roclk-lint:\s*allow\(([a-z0-9_,\- ]+)\))"};
  std::istringstream in{std::string{source}};
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    std::smatch match;
    if (!std::regex_search(line, match, kAllow)) continue;
    std::istringstream rules{match[1].str()};
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      const auto first = rule.find_first_not_of(' ');
      const auto last = rule.find_last_not_of(' ');
      if (first == std::string::npos) continue;
      waivers.emplace_back(lineno, rule.substr(first, last - first + 1));
    }
  }
  return waivers;
}

bool is_waived(
    const std::vector<std::pair<std::size_t, std::string>>& waivers,
    std::size_t line, std::string_view rule) {
  return std::any_of(waivers.begin(), waivers.end(), [&](const auto& w) {
    return w.first == line && w.second == rule;
  });
}

std::string strip_comments_and_strings(std::string_view source) {
  std::string out;
  out.reserve(source.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   source[i - 1])) &&
                               source[i - 1] != '_'))) {
          // Raw string literal: R"delim( ... )delim".  Skip to the
          // matching close sequence, blanking everything but newlines.
          std::size_t j = i + 2;
          std::string delim;
          while (j < source.size() && source[j] != '(') delim += source[j++];
          const std::string close = ")" + delim + "\"";
          std::size_t end = source.find(close, j);
          if (end == std::string_view::npos) end = source.size();
          else end += close.size();
          for (std::size_t k = i; k < end; ++k) {
            out += source[k] == '\n' ? '\n' : ' ';
          }
          i = end - 1;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'' &&
                   (i == 0 ||
                    (!std::isalnum(static_cast<unsigned char>(source[i - 1])) &&
                     source[i - 1] != '_'))) {
          // A quote after an identifier/number char is a digit separator
          // (1'000'000), not a character literal.
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<Finding> lint_source(const std::filesystem::path& display_path,
                                 std::string_view source) {
  std::vector<Finding> findings;
  const auto waivers = collect_waivers(source);
  const auto report = [&](std::size_t line, std::string rule,
                          std::string message) {
    if (is_waived(waivers, line, rule)) return;
    findings.push_back(
        {display_path, line, std::move(rule), std::move(message)});
  };

  if (is_header(display_path) &&
      source.find("#pragma once") == std::string_view::npos) {
    report(1, "pragma-once", "header is missing #pragma once");
  }

  const bool may_round = path_ends_with(display_path, "common/math.hpp");
  const bool may_intrinsics =
      path_ends_with(display_path, "common/simd.hpp");
  const bool may_sockets =
      path_ends_with(display_path, "service/transport.cpp") ||
      path_ends_with(display_path, "service/transport.hpp");

  static const std::regex kRound{
      R"(std\s*::\s*(l?l?round|nearbyint|l?l?rint)\s*\()"};
  static const std::regex kRand{R"((^|[^:\w])(std\s*::\s*)?s?rand\s*\()"};
  static const std::regex kRandomDevice{R"(\brandom_device\b)"};
  static const std::regex kNakedNew{R"(\bnew\b)"};
  static const std::regex kNakedDelete{R"(\bdelete\b)"};
  static const std::regex kEndl{R"(std\s*::\s*endl\b)"};
  static const std::regex kIncludeLine{R"(^\s*#\s*include\b)"};
  static const std::regex kRandomHeader{R"(#\s*include\s*<random>)"};
  static const std::regex kIntrinsicsHeader{
      R"(#\s*include\s*<([a-z0-9]*mmintrin|immintrin|x86intrin|x86gprintrin|)"
      R"(arm_neon|arm_sve|arm_acle)\.h>)"};
  static const std::regex kStdRandom{
      R"(std\s*::\s*(mt19937|minstd_rand|ranlux\w*|knuth_b|)"
      R"(default_random_engine|[a-z_]+_distribution)\b)"};
  static const std::regex kSocketHeader{
      R"(#\s*include\s*<(sys/socket\.h|sys/un\.h|netinet/[a-z_/]+\.h|)"
      R"(arpa/inet\.h|poll\.h|sys/epoll\.h|sys/select\.h)>)"};

  const std::string stripped = strip_comments_and_strings(source);
  std::istringstream in{stripped};
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    std::smatch match;
    if (!may_round && std::regex_search(line, match, kRound)) {
      // lround, llround, lrint and llrint return an integer.
      const std::string name = match[1].str();
      report(lineno, "round",
             "std::" + name + " bypasses the ties-away contract; use " +
                 (name.front() == 'l' ? "llround_ties_away"
                                      : "round_ties_away") +
                 " from roclk/common/math.hpp");
    }
    if (std::regex_search(line, kRand)) {
      report(lineno, "rng",
             "raw C rand()/srand() is nondeterministic across platforms; "
             "draw from a keyed CounterRng (roclk/common/stream_key.hpp)");
    }
    if (std::regex_search(line, kRandomDevice)) {
      report(lineno, "rng",
             "std::random_device breaks reproducibility; derive a StreamKey "
             "from an explicit seed (roclk/common/stream_key.hpp)");
    }
    if (std::regex_search(line, kRandomHeader)) {
      report(lineno, "rng",
             "<random> engines and distributions differ between standard "
             "libraries; draw from a keyed CounterRng "
             "(roclk/common/stream_key.hpp)");
    } else if (std::regex_search(line, match, kStdRandom)) {
      report(lineno, "rng",
             "std::" + match[1].str() +
                 " differs between standard libraries; draw from a keyed "
                 "CounterRng (roclk/common/stream_key.hpp)");
    }
    // `#include <new>` contains the keyword but allocates nothing.
    const bool include_line = std::regex_search(line, kIncludeLine);
    if (!include_line) {
      for (auto it =
               std::sregex_iterator(line.begin(), line.end(), kNakedNew);
           it != std::sregex_iterator{}; ++it) {
        const auto pos = static_cast<std::size_t>(it->position());
        if (word_before_is(line, pos, "operator")) continue;
        report(lineno, "naked-new",
               "owning raw 'new'; use std::make_unique or a container");
      }
      for (auto it =
               std::sregex_iterator(line.begin(), line.end(), kNakedDelete);
           it != std::sregex_iterator{}; ++it) {
        const auto pos = static_cast<std::size_t>(it->position());
        if (char_before_is(line, pos, '=')) continue;  // deleted function
        if (word_before_is(line, pos, "operator")) continue;
        report(lineno, "naked-new",
               "raw 'delete'; the owner should be a smart pointer or "
               "container");
      }
    }
    if (std::regex_search(line, kEndl)) {
      report(lineno, "endl", "std::endl forces a flush; write '\\n' instead");
    }
    if (!may_intrinsics && std::regex_search(line, kIntrinsicsHeader)) {
      report(lineno, "simd-include",
             "vendor SIMD intrinsics are confined to roclk/common/simd.hpp "
             "(the dispatch shim); write kernels against its backend traits");
    }
    if (!may_sockets && std::regex_search(line, kSocketHeader)) {
      report(lineno, "socket-include",
             "raw socket APIs are confined to roclk/service/transport.{hpp,"
             "cpp}; speak Frame values through the transport layer instead");
    }
  }
  return findings;
}

}  // namespace roclk::lint
