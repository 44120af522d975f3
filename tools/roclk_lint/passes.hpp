// The multi-pass project analyzer (DESIGN.md §15).  Each pass sees the
// whole project at once — the per-line rules in lint.hpp cannot express
// these checks:
//
//   layering     pass 1 — the #include graph over include/roclk/ + src/
//                must respect the architecture DAG (common at the bottom,
//                service at the top; the enforced edges mirror the build
//                order documented in src/CMakeLists.txt).  Rules:
//                `layer-include` (a file includes a module its layer may
//                not depend on) and `include-cycle` (header cycle, with
//                the full who-includes-whom chain in the message).
//
//   determinism  pass 2 — simulation results must be pure functions of
//                their inputs.  Rules: `wall-clock` (system_clock /
//                steady_clock / high_resolution_clock / time() /
//                gettimeofday / clock_gettime), `env-source`
//                (getenv/setenv family), and `sleep` (sleep_for /
//                nanosleep family; real sleeping is confined to the
//                retry backoff module so failure handling stays
//                replayable through injected hooks) — all banned in
//                library code; tools/, bench/, examples/, tests/ and
//                the service transport TU are allowlisted, and
//                service/retry.cpp may sleep — plus `tag-unregistered`,
//                `tag-duplicate` and `tag-orphaned`, cross-checking every
//                StreamKey split("...") literal against the DESIGN.md §13
//                registry and every registry row against those literals.
//
//   locks        pass 3 — lock discipline.  Rules: `naked-lock` (direct
//                .lock()/.unlock()/.try_lock() on a declared mutex;
//                require lock_guard/unique_lock/scoped_lock),
//                `dead-mutex` (a mutex member declared in a header that
//                no file ever guards), and `lock-order` (acquiring a
//                second mutex while one is held — nested acquisition is
//                a deadlock hazard unless the global order is documented
//                with a waiver; a detected inversion names both sites).
//
// Every pass honours the shared `roclk-lint: allow(rule)` waivers.
#pragma once

#include <vector>

#include "lint.hpp"
#include "project.hpp"
#include "registry.hpp"

namespace roclk::lint {

/// Pass 1: layering DAG + include-cycle detection.
[[nodiscard]] std::vector<Finding> check_layering(
    const std::vector<SourceFile>& files);

/// Pass 2: wall-clock/environment audit and StreamKey tag cross-check.
/// `registry` may be null (tag checks are skipped, e.g. fixture trees
/// without a DESIGN.md); `registry_path` is used to report
/// `tag-duplicate` and `tag-orphaned` findings at their registry row.
/// `files` must be the whole project: a row counts as orphaned when no
/// library file in it derives the tag.
[[nodiscard]] std::vector<Finding> check_determinism(
    const std::vector<SourceFile>& files, const TagRegistry* registry,
    const std::filesystem::path& registry_path = "DESIGN.md");

/// Pass 3: lock discipline.
[[nodiscard]] std::vector<Finding> check_locks(
    const std::vector<SourceFile>& files);

/// All three project passes in order, one findings list.
[[nodiscard]] std::vector<Finding> check_project(
    const std::vector<SourceFile>& files, const TagRegistry* registry,
    const std::filesystem::path& registry_path = "DESIGN.md");

}  // namespace roclk::lint
