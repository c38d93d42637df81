#!/usr/bin/env bash
# Config-surface count: prints the number of data members of every
# `*Config` / `*Policy` struct under src/ (a `Config` nested in a class
# included), one line per struct, then the total. Every field is a
# configuration that tests must cover, so a change that retires fields
# quotes this count before and after.
#
# A member whose type is itself a config struct (`sim::HostConfig host;`)
# counts as one field of the struct that holds it; the nested struct's own
# members are counted once, under that struct, however many structs embed
# it. Static constants, type aliases and member functions are not fields.
#
# Usage: tests/config_fields.sh [source_root]
#   source_root defaults to this script's repository; pass another tree
#   (e.g. an unpacked parent commit) to count its src/ instead.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
[[ -d "$root/src" ]] || { echo "no src/ under $root" >&2; exit 2; }
cd "$root"

find src -name '*.h' -o -name '*.cc' | LC_ALL=C sort |
  xargs awk '
    # Strips // comments and string literals so neither braces nor
    # semicolons inside them count.
    function code(s) {
      gsub(/"([^"\\]|\\.)*"/, "\"\"", s)
      sub(/\/\/.*/, "", s)
      return s
    }
    !in_struct && /^[[:space:]]*struct [A-Za-z_]*(Config|Policy)[[:space:]]*\{/ {
      name = $0
      sub(/^[[:space:]]*struct /, "", name)
      sub(/[[:space:]]*\{.*/, "", name)
      in_struct = 1; depth = 1; fields = 0; pending = ""
      next
    }
    in_struct {
      line = code($0)
      if (depth == 1) pending = pending " " line
      opens = gsub(/\{/, "{", line)
      closes = gsub(/\}/, "}", line)
      depth += opens - closes
      if (depth == 0) {
        printf "%-48s %3d\n", FILENAME ": " name, fields
        total += fields
        in_struct = 0
        next
      }
      # A statement ends at a semicolon back at the struct body depth.
      if (depth == 1 && line ~ /;[[:space:]]*$/) {
        decl = pending
        pending = ""
        sub(/^[[:space:]]+/, "", decl)
        if (decl ~ /^(static|using|friend|template|typedef|struct|class|enum)[[:space:]]/) next
        if (decl ~ /^\[\[/) next
        head = decl
        sub(/[=;{].*/, "", head)
        if (head ~ /\(/) next  # a member function
        if (split(head, words, /[[:space:]]+/) >= 2 || head ~ /[>&*][[:space:]]*[A-Za-z_]/) fields++
      } else if (depth == 1 && line ~ /\}[[:space:]]*$/) {
        pending = ""  # an inline function body just closed
      } else if (depth == 1 && line ~ /:[[:space:]]*$/) {
        pending = ""  # an access specifier
      }
    }
    END { printf "%-48s %3d\n", "total", total }
  '
