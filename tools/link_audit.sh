#!/usr/bin/env bash
# Link audit: every out-of-line library function must be linked into a
# shipped binary, or be named in tools/link_audit_allowlist.txt.
#
#   tools/link_audit.sh [build-dir]      # default: build-link-audit/
#
# Builds the tree (tools, examples, paper benches; no tests) and perfbench/
# at -O0 with one section per function and --gc-sections, so a function
# the linker keeps is one a shipped binary reaches and no caller is hidden
# by inlining.  It then lists the strong (T) functions of the library
# archives and removes every symbol defined in the built executables.
# What is left is unreached.  Header-only code is invisible to it.
#
# Exits 1 if an unreached function is not on the allowlist, or if an
# allowlist line names a function that is now linked or no longer exists.
# An allowlist line is a demangled signature as `nm -C` prints it, then
# ` # ` and why it stays (the test that needs it); `#` lines are comments.
set -euo pipefail
export LC_ALL=C  # sort and comm must agree on one byte order

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$root/build-link-audit}
allowlist=$root/tools/link_audit_allowlist.txt
jobs=$(nproc 2>/dev/null || echo 2)

config=(-DCMAKE_BUILD_TYPE=Debug
        "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$root" -B "$out/tree" -DROCLK_BUILD_TESTS=OFF "${config[@]}" >/dev/null
cmake --build "$out/tree" -j "$jobs" >/dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" "${config[@]}" >/dev/null
cmake --build "$out/perfbench" -j "$jobs" >/dev/null

# nm -C -S -t d prints "address size type name..." in decimal; the name
# may hold spaces.
strong_functions() {
  nm -C -S -t d --defined-only "$@" 2>/dev/null |
    awk 'NF >= 4 && $3 == "T" { size = $2 + 0; $1 = $2 = $3 = ""; sub(/^ +/, "");
                                print size "\t" $0 }'
}

archives=("$out"/tree/src/*/libroclk_*.a)
mapfile -t executables < <(
  find "$out/tree" "$out/perfbench" -type f -perm -u+x \
       -not -path '*/CMakeFiles/*' -print |
    while read -r f; do
      [[ $(head -c 4 "$f" | od -An -c | tr -d ' ') == '177ELF' ]] && echo "$f"
    done)
if (( ${#executables[@]} == 0 )); then
  echo "link_audit: no executables built under $out" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

strong_functions "${archives[@]}" | sort -t $'\t' -k2 -u >"$tmp/library"
nm -C --defined-only "${executables[@]}" 2>/dev/null |
  awk 'NF >= 3 { $1 = $2 = ""; sub(/^ +/, ""); print }' | sort -u >"$tmp/linked"
cut -f2 "$tmp/library" | sort -u >"$tmp/library_names"
comm -23 "$tmp/library_names" "$tmp/linked" >"$tmp/unreached"
{ grep -v '^[[:space:]]*\(#\|$\)' "$allowlist" || true; } |
  sed 's/ # .*//; s/[[:space:]]*$//' | sort -u >"$tmp/allowed"

awk -F'\t' -v unreached="$tmp/unreached" '
  BEGIN { while ((getline name < unreached) > 0) dead[name] = 1 }
  { total += $1; n++; if ($2 in dead) { dead_bytes += $1; dead_n++ } }
  END { printf "link_audit: %d executables; %d of %d library functions " \
               "(%d of %d bytes of text) reached by none\n",
               '"${#executables[@]}"', dead_n, n, dead_bytes, total }
' "$tmp/library"

status=0
while read -r name; do
  echo "unreached, not on the allowlist: $name"
  status=1
done < <(comm -23 "$tmp/unreached" "$tmp/allowed")
while read -r name; do
  if grep -qxF -- "$name" "$tmp/library_names"; then
    echo "stale allowlist line, now linked: $name"
  else
    echo "stale allowlist line, no such library function: $name"
  fi
  status=1
done < <(comm -13 "$tmp/unreached" "$tmp/allowed")
exit "$status"
