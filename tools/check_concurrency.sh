#!/bin/sh
# Concurrency lint: no top-level mutable state in the libraries that
# run under worker domains.
#
# lib/engine fans jobs out over Domain.spawn; lib/serve dispatches
# wire requests onto that pool; lib/telemetry is called from every
# domain on every timer tick; lib/automata, lib/charset, lib/regex and
# lib/dprle are the solver those workers run. A top-level `ref`, bare
# mutable container or scratch array/byte buffer in any of them is
# shared across domains without synchronization — a data race under
# the OCaml 5 memory model, even when today's call pattern happens to
# be single-threaded.
#
# Allowed on the same binding: Atomic.* (racy reads become ordered),
# Mutex.* (guarded), Domain.DLS.* (domain-local by construction).
# Anything else fails the build. Genuinely single-domain state
# belongs in a function body, behind Domain.DLS, or in a library
# outside the gated set.

set -eu

root=${1:-.}
gated="lib/engine lib/serve lib/telemetry lib/automata lib/charset lib/dprle lib/regex"
status=0

for dir in $gated; do
  [ -d "$root/$dir" ] || continue
  for f in "$root/$dir"/*.ml; do
    [ -e "$f" ] || continue
    # Top-level `let` bindings that create mutable state on the same
    # line; indented (local) bindings are fine — locals escape only
    # through closures, which the per-module review covers.
    # A binding with parameters (`let f () = Hashtbl.create ...`) is a
    # function — fresh state per call — so only a bare name (with an
    # optional type annotation) before `=` counts.
    matches=$(grep -nE "^let [a-z_][a-zA-Z0-9_']*( *: *[^=]+)? = *(ref |Hashtbl\.create|Queue\.create|Buffer\.create|Stack\.create|Array\.make|Bytes\.create)" "$f" \
      | grep -vE 'Atomic\.|Mutex\.|Domain\.DLS' || true)
    if [ -n "$matches" ]; then
      echo "$f: top-level mutable state in a domain-shared library:" >&2
      echo "$matches" | sed 's/^/  /' >&2
      echo "  (wrap it in Atomic/Mutex/Domain.DLS or move it out of the gated set)" >&2
      status=1
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "check_concurrency: no unsynchronized top-level mutable state in: $gated"
fi
exit $status
