#!/bin/sh
# Checks the build this repository relies on, which dune-workspace sets
# up: the release profile, under which no lib/ module is compiled with
# -opaque (so ocamlopt inlines small functions across modules through
# their .cmx files), with the dev profile's compiler flags (warnings as
# errors, -strict-sequence and the rest). Fails if either is lost, for
# example when dune-workspace is deleted or its env stanza edited, and
# if the event core's per-event calls stop being inlined, or a module
# other than Engine uses the engine's clock cell (below).
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
# The per-event calls of the event core are inlined across modules:
# the [@inline] attributes in lib/sim, lib/net, lib/tcp and lib/tfrc
# keep the clock and event times unboxed through them, and spare a
# call per event. An inlined callee leaves no reference to its symbol
# in the caller's object file, so each caller below must not name any
# of its listed callees (camlEbrc_<lib>__<Module>.<function>_<stamp>).
# Fails if an attribute is lost, or the build goes -opaque.
hot_calls='
lib/sim/.ebrc_sim.objs/native/ebrc_sim__Engine.o Ebrc_sim__Timing_wheel try_push fits push insert_entry ensure drop_min follow_lanes occ_set occ_clear anchor
lib/net/.ebrc_net.objs/native/ebrc_net__Link.o Ebrc_sim__Engine now lane_push lane_is_empty
lib/net/.ebrc_net.objs/native/ebrc_net__Link.o Ebrc_net__Queue_discipline offer update_avg departure
lib/tcp/.ebrc_tcp.objs/native/ebrc_tcp__Tcp_sender.o Ebrc_sim__Engine now arm arm_after enqueue schedule_unit disarm armed
lib/tcp/.ebrc_tcp.objs/native/ebrc_tcp__Tcp_sender.o Ebrc_net__Packet data make
lib/tcp/.ebrc_tcp.objs/native/ebrc_tcp__Tcp_receiver.o Ebrc_sim__Engine now arm arm_after enqueue disarm armed
lib/tfrc/.ebrc_tfrc.objs/native/ebrc_tfrc__Tfrc_sender.o Ebrc_sim__Engine now schedule_unit arm_after
lib/tfrc/.ebrc_tfrc.objs/native/ebrc_tfrc__Tfrc_sender.o Ebrc_sim__Timing_wheel try_push insert_entry
lib/tfrc/.ebrc_tfrc.objs/native/ebrc_tfrc__Tfrc_sender.o Ebrc_net__Packet data make
lib/tfrc/.ebrc_tfrc.objs/native/ebrc_tfrc__Tfrc_receiver.o Ebrc_sim__Engine now schedule_unit
lib/tfrc/.ebrc_tfrc.objs/native/ebrc_tfrc__Tfrc_receiver.o Ebrc_tfrc__Loss_history on_packet
lib/tfrc/.ebrc_tfrc.objs/native/ebrc_tfrc__Tfrc_receiver.o Ebrc_net__Packet feedback make
'
# A positive control for the same pattern: each caller object must name
# a function it calls out of line on purpose (a rare or cold path). If
# the symbol mangling or an object's path changes, the pattern above
# could match nothing and pass without checking anything; this fails.
kept_calls='
lib/sim/.ebrc_sim.objs/native/ebrc_sim__Engine.o Ebrc_sim__Timing_wheel link_entry
lib/net/.ebrc_net.objs/native/ebrc_net__Link.o Ebrc_sim__Engine lane_started
lib/tcp/.ebrc_tcp.objs/native/ebrc_tcp__Tcp_sender.o Ebrc_sim__Engine check_at_fail
lib/tcp/.ebrc_tcp.objs/native/ebrc_tcp__Tcp_receiver.o Ebrc_sim__Engine check_at_fail
lib/tfrc/.ebrc_tfrc.objs/native/ebrc_tfrc__Tfrc_sender.o Ebrc_sim__Timing_wheel link_entry
lib/tfrc/.ebrc_tfrc.objs/native/ebrc_tfrc__Tfrc_receiver.o Ebrc_tfrc__Loss_history record_loss_event
'
objs=$(printf '%s\n%s\n' "$hot_calls" "$kept_calls" \
  | awk 'NF { print "_build/default/" $1 }' | sort -u)
# shellcheck disable=SC2086
dune build $objs
# The symbols of <unit>'s functions <fns> that <obj> calls out of line.
named() {
  obj=$1 unit=$2
  shift 2
  if [ ! -f "_build/default/$obj" ]; then
    echo "opaque-check: $obj was not built" >&2
    exit 1
  fi
  alt=$(printf '%s' "$*" | tr ' ' '|')
  nm -u "_build/default/$obj" | grep -E "caml${unit}\.(${alt})_[0-9]+\$" || true
}
printf '%s\n' "$kept_calls" | while read -r obj unit fns; do
  [ -n "$obj" ] || continue
  # shellcheck disable=SC2086
  calls=$(named "$obj" "$unit" $fns)
  if [ -z "$calls" ]; then
    echo "opaque-check: $obj names no camlEbrc_${unit}.{${fns}}_N;" \
      "the inlining check below would check nothing" >&2
    exit 1
  fi
done
printf '%s\n' "$hot_calls" | while read -r obj unit fns; do
  [ -n "$obj" ] || continue
  # shellcheck disable=SC2086
  calls=$(named "$obj" "$unit" $fns)
  if [ -n "$calls" ]; then
    echo "opaque-check: $obj calls functions that should be inlined:" >&2
    printf '%s\n' "$calls" >&2
    exit 1
  fi
done
# The clock cell is stored to by Engine alone: [private] makes the
# field read-only, not the floatarray it holds, so no other module may
# name the field (it reads the clock through Engine.now).
if grep -rnE --include='*.ml' --include='*.mli' '\.clock\b' \
  lib bin bench test examples tools | grep -v '^lib/sim/engine\.mli\?:'; then
  echo "opaque-check: only lib/sim/engine.ml may use Engine.t's clock cell" >&2
  exit 1
fi
echo "opaque-check: release build, no -opaque, dev compiler flags," \
  "hot calls inlined, clock cell private to Engine"
