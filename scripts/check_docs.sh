#!/usr/bin/env bash
# Documentation consistency gate, run by CI's docs job and registered as a
# CTest test (label: docs). Three checks:
#   1. Every relative markdown link in README.md, docs/*.md, bench/README.md
#      resolves to an existing file or directory.
#   2. docs/CONFIG.md documents every field of GsTgConfig, RenderConfig and
#      ServiceConfig as a table row of its own struct's section (the field's
#      backticked name is the row's first cell, under "## `Struct`"), so the
#      config reference cannot silently rot. A mention elsewhere — in another
#      field's row or another struct's table — does not count.
#   3. Every GSTG_* environment variable parsed in common/runconfig.cpp has
#      a row in docs/CONFIG.md, so new env knobs cannot ship undocumented.
#   4. No rendered image output (*.ppm) is tracked by git — PPMs are build
#      products (quickstart, bench quality diffs) and belong in .gitignore.
#   5. Every lint rule ID in tools/lint/gstg_lint.py has a matching section
#      in docs/ARCHITECTURE.md, so the invariant catalogue cannot rot.
#
# Usage: check_docs.sh [config_md]   (default docs/CONFIG.md; the docs
# selftest passes doctored copies to prove check 2 fails on them)
set -u

cd "$(dirname "$0")/.." || exit 1
config_md=${1:-docs/CONFIG.md}
fail=0

# --- 1. relative links resolve -------------------------------------------
docs="README.md bench/README.md"
for f in docs/*.md; do docs="$docs $f"; done

for doc in $docs; do
  [ -f "$doc" ] || { echo "MISSING DOC: $doc"; fail=1; continue; }
  dir=$(dirname "$doc")
  # Markdown inline links: capture the (...) target, keep relative ones.
  links=$(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//')
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"            # strip anchors
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ]; then
      echo "BROKEN LINK in $doc: $link"
      fail=1
    fi
  done
done

# --- 2. CONFIG.md covers every config field ------------------------------
check_fields() {
  header=$1
  struct=$2
  # Field names: lines like "  <type> <name> = ...;" or "  <type> <name>;"
  # at member indentation (exactly two spaces — deeper lines are method
  # bodies), ignoring comments and functions.
  fields=$(awk "/^struct $struct /,/^};/" "$header" \
    | grep -v '^\s*//' \
    | grep -E '^  [A-Za-z_][A-Za-z0-9_:<>]*\s+[a-z_][a-z0-9_]*\s*(=[^;]*)?;' \
    | sed -E 's/^  [A-Za-z_][A-Za-z0-9_:<>]*\s+([a-z_][a-z0-9_]*).*/\1/')
  if [ -z "$fields" ]; then
    echo "NO FIELDS FOUND for $struct in $header (check_docs.sh pattern broke?)"
    fail=1
    return
  fi
  # The struct's section: from its "## `Struct`" heading to the next "## ".
  section=$(awk -v h="## \`$struct\`" \
    'index($0, h) == 1 { on = 1; next } on && /^## / { on = 0 } on' "$config_md")
  for field in $fields; do
    if ! printf '%s\n' "$section" | grep -q "^| \`$field\` |"; then
      echo "UNDOCUMENTED FIELD: $struct::$field has no row in the $struct section of $config_md"
      fail=1
    fi
  done
}

check_fields src/core/gstg_config.h GsTgConfig
check_fields src/render/types.h RenderConfig
check_fields src/service/render_service.h ServiceConfig

# --- 3. CONFIG.md covers every GSTG_* env var parsed by runconfig --------
# runconfig.cpp is where environment parsing lives; string literals like
# "GSTG_PIPELINE" are the knobs. (Callers pass further names to the generic
# env_positive_size helper, so scan every source file for literals.)
env_vars=$(grep -rhoE '"GSTG_[A-Z0-9_]+"' src/ | tr -d '"' | sort -u)
if [ -z "$env_vars" ]; then
  echo "NO GSTG_* ENV VARS FOUND in src/ (check_docs.sh pattern broke?)"
  fail=1
fi
for var in $env_vars; do
  if ! grep -q "$var" "$config_md"; then
    echo "UNDOCUMENTED ENV VAR: $var missing from $config_md"
    fail=1
  fi
done

# --- 4. no tracked *.ppm build products ----------------------------------
if command -v git >/dev/null 2>&1 && git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  tracked_ppm=$(git ls-files -- '*.ppm')
  if [ -n "$tracked_ppm" ]; then
    echo "TRACKED BUILD PRODUCT: $tracked_ppm (PPM images are outputs; git rm them)"
    fail=1
  fi
fi

# --- 5. ARCHITECTURE.md documents every lint rule ------------------------
if [ -f tools/lint/gstg_lint.py ]; then
  rule_ids=$(grep -oE '^\s+"R[0-9]+":' tools/lint/gstg_lint.py | grep -oE 'R[0-9]+' | sort -u)
  if [ -z "$rule_ids" ]; then
    echo "NO LINT RULES FOUND in tools/lint/gstg_lint.py (check_docs.sh pattern broke?)"
    fail=1
  fi
  for rule in $rule_ids; do
    if ! grep -qE "\b$rule\b" docs/ARCHITECTURE.md; then
      echo "UNDOCUMENTED LINT RULE: $rule missing from docs/ARCHITECTURE.md"
      fail=1
    fi
  done
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK (links resolve, config fields + lint rules documented, no tracked PPMs)"
