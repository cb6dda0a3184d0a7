#!/usr/bin/env bash
# Self-test of check_docs.sh check 2 (config fields documented as rows of
# their own struct's table). Each case doctors a copy of docs/CONFIG.md so
# that a field's row is gone while its backticked name still appears
# elsewhere in the file — which a plain "name appears anywhere" check would
# accept — and requires check_docs.sh to name the missing field.
set -u

cd "$(dirname "$0")/.." || exit 1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

# expect_missing <case> <struct> <field> <awk program deleting the row>
expect_missing() {
  doc="$tmp/$1.md"
  awk "$4" docs/CONFIG.md > "$doc"
  if ! grep -q "\`$3\`" "$doc"; then
    echo "FAIL $1: the doctored copy no longer mentions \`$3\` at all (case is vacuous)"
    fail=1
    return
  fi
  out=$(bash scripts/check_docs.sh "$doc")
  if printf '%s\n' "$out" | grep -q "UNDOCUMENTED FIELD: $2::$3 "; then
    echo "ok   $1"
  else
    echo "FAIL $1: check_docs.sh accepted $2::$3 without its row"
    printf '%s\n' "$out"
    fail=1
  fi
}

# GsTgConfig::binning only named inside the `trace` row.
expect_missing binning_via_trace_row GsTgConfig binning \
  '/^## `GsTgConfig`/ { on = 1 } /^## `RenderConfig`/ { on = 0 } !(on && /^\| `binning` \|/)'
# GsTgConfig::tile_size only documented in RenderConfig's table.
expect_missing tile_size_via_other_struct GsTgConfig tile_size \
  '/^## `GsTgConfig`/ { on = 1 } /^## `RenderConfig`/ { on = 0 } !(on && /^\| `tile_size` \|/)'

# The real reference passes.
if bash scripts/check_docs.sh >/dev/null; then
  echo "ok   docs/CONFIG.md"
else
  echo "FAIL docs/CONFIG.md: check_docs.sh rejects the committed reference"
  fail=1
fi

exit "$fail"
