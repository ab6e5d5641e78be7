#!/bin/sh
# Checks the build this repository relies on, which dune-workspace sets
# up: the release profile, under which no lib/ module is compiled with
# -opaque (so ocamlopt inlines small functions across modules through
# their .cmx files), with the dev profile's compiler flags (warnings as
# errors, -strict-sequence and the rest). Fails if either is lost, for
# example when dune-workspace is deleted or its env stanza edited.
# Run from the repository root: sh scripts/opaque_check.sh
set -eu

cmx=_build/default/lib/sim/.ebrc_sim.objs/native/ebrc_sim__Engine.cmx
rules=$(dune rules "$cmx")
if ! printf '%s\n' "$rules" | grep -q 'lib/sim/engine\.ml'; then
  echo "opaque-check: no compile rule found for $cmx" >&2
  exit 1
fi
if printf '%s\n' "$rules" | grep -qE '^[[:space:]]*-opaque$'; then
  echo "opaque-check: lib/ modules are compiled with -opaque;" \
    "dune-workspace must select the release profile" >&2
  exit 1
fi

# The (flags ...), (ocamlc_flags ...) and (ocamlopt_flags ...) entries.
ocaml_flags() {
  dune printenv "$@" . | sed -n '/^(flags/,/^(ocamlopt_flags/p'
}
dev=$(ocaml_flags --profile dev)
cur=$(ocaml_flags)
if [ -z "$dev" ] || [ "$dev" != "$cur" ]; then
  echo "opaque-check: the default profile's OCaml flags differ from the" \
    "dev profile's:" >&2
  printf 'dev:\n%s\ndefault:\n%s\n' "$dev" "$cur" >&2
  exit 1
fi
echo "opaque-check: release build, no -opaque, dev compiler flags"
