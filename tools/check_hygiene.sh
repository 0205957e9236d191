#!/bin/sh
# CI-style hygiene checks.  Wired into the default `dune runtest` (see
# test/dune) and into `dune build @bench-quick` (see bench/dune), so
# both lanes fail fast on:
#   1. build artifacts tracked in git,
#   2. stray session-cache residue (*.eocache) left in the source tree,
#   3. an .ml file under lib/ without a matching .mli — every library
#      module must state its interface,
#   4. an engine or model name known to the Config parser but missing
#      from the CLI help or the docs, or a name accepted that Config
#      rejects — the vocabulary must read the same everywhere it is
#      listed (that the typed values print as exactly the Config names
#      is the alcotest case "engine and model vocabularies"),
#   5. the timeout vocabulary drifting apart: EO_TIMEOUT_MS, --timeout,
#      the "status": "timeout" JSON field and exit code 3 must each be
#      named in the config parser, the CLI or the API that owns them, and
#      the docs,
#   6. the CLI rendering a document or picking an engine on its own:
#      bin/ must spell no eventorder.*/N schema and read or set no engine
#      or model switch — lib/api resolves settings and renders the
#      documents for it.
set -e

root=$(git rev-parse --show-toplevel 2>/dev/null) || {
  echo "hygiene: not inside a git checkout; skipping"
  exit 0
}
cd "$root"

bad=$(git ls-files _build '*.install')
if [ -n "$bad" ]; then
  echo "hygiene: build artifacts are tracked in git:" >&2
  echo "$bad" >&2
  exit 1
fi
echo "hygiene: no tracked build artifacts"

# Session-cache entries belong under EO_CACHE_DIR / --cache directories,
# never in the tree (a committed cache would bypass every invalidation
# rule the cache relies on).
stray=$(find . -name '*.eocache' -not -path './_build/*' -not -path './.git/*')
if [ -n "$stray" ]; then
  echo "hygiene: stray session-cache files in the source tree:" >&2
  echo "$stray" >&2
  exit 1
fi
echo "hygiene: no stray cache files"

# Interface discipline: every lib/**/*.ml ships its .mli.
missing=""
for ml in $(git ls-files 'lib/*.ml' 'lib/**/*.ml'); do
  mli="${ml}i"
  [ -f "$mli" ] || missing="$missing $ml"
done
if [ -n "$missing" ]; then
  echo "hygiene: lib modules without an .mli:" >&2
  for m in $missing; do echo "  $m" >&2; done
  exit 1
fi
echo "hygiene: every lib module has an interface"

# Engine- and model-name consistency: Config.engine_names and
# Config.model_names are the source of truth.  Engine.of_string and
# Memmodel.of_string accept a name iff a value of [all] prints as it,
# and the alcotest case "engine and model vocabularies" checks that
# [all] prints as exactly the Config names; the CLI flags and request
# fields are validated by them in lib/api.  Here every name must also be
# named in the CLI help text and documented in docs/ANALYSES.md, and no
# parser arm or CLI enum pair may accept a name Config rejects.
names() { # names <engine|model>
  sed -n "s/^let $1_names = \\[\\(.*\\)\\]/\\1/p" lib/obs/config.ml | tr -d '";'
}
engines=$(names engine)
models=$(names model)
if [ -z "$engines" ] || [ -z "$models" ]; then
  echo "hygiene: could not read engine_names/model_names from lib/obs/config.ml" >&2
  exit 1
fi
for e in $engines $models; do
  grep -q "'$e'" bin/eventorder.ml || {
    echo "hygiene: '$e' missing from the CLI --engine/--model help text" >&2
    exit 1; }
  grep -q "\`$e\`" docs/ANALYSES.md || {
    echo "hygiene: '$e' not documented in docs/ANALYSES.md" >&2
    exit 1; }
done
for f in lib/feasible/engine.ml lib/memmodel/memmodel.ml; do
  grep -q '^let of_string s = List.find_opt (fun [a-z]* -> to_string [a-z]* = s) all$' "$f" || {
    echo "hygiene: $f: of_string must accept exactly what to_string prints over all" >&2
    exit 1; }
done
only_config() { # only_config <engine|model> <Config names> <accepted name>...
  what=$1; known=$2; shift 2
  for n in "$@"; do
    case " $known " in
      *" $n "*) ;;
      *) echo "hygiene: $what '$n' is accepted but Config rejects it" >&2
         exit 1 ;;
    esac
  done
}
arms() { grep -oh '"[^"]*" -> Some' "$@" | sed 's/^"\([^"]*\)".*/\1/' || true; }
pairs() { # pairs <Module>: ("name", Module.X) enum entries in the CLI and API
  grep -oh "(\"[^\"]*\", $1\." bin/*.ml lib/api/*.ml \
    | sed 's/^("\([^"]*\)".*/\1/' || true
}
only_config engine "$engines" $(arms lib/feasible/engine.ml) $(pairs Engine)
only_config model "$models" $(arms lib/memmodel/memmodel.ml) $(pairs Memmodel)
echo "hygiene: engine and model names agree across Config, parsers, CLI help and docs"

for knob in EO_ENGINE EO_MODEL; do
  grep -q "$knob" lib/obs/config.ml || {
    echo "hygiene: $knob parser missing from lib/obs/config.ml" >&2; exit 1; }
  grep -q "$knob" lib/api/api.ml || {
    echo "hygiene: $knob fallback missing from lib/api/api.ml" >&2; exit 1; }
  grep -q "$knob" docs/ANALYSES.md || {
    echo "hygiene: $knob documentation missing from docs/ANALYSES.md" >&2
    exit 1; }
done
for ctr in Model_queries_sc Model_queries_tso Model_queries_pso \
           Consistency_checks Consistency_fast_hits Consistency_sat_hits; do
  grep -q "$ctr" lib/obs/counters.ml || {
    echo "hygiene: $ctr counter missing from lib/obs/counters.ml" >&2; exit 1; }
done
for name in model_queries_sc model_queries_tso model_queries_pso \
            consistency_checks consistency_fast_hits consistency_sat_hits; do
  grep -q "$name" lib/obs/counters.ml || {
    echo "hygiene: $name counter name missing from lib/obs/counters.ml" >&2
    exit 1; }
  grep -q "$name" docs/PROTOCOL.md || {
    echo "hygiene: $name protocol documentation missing from docs/PROTOCOL.md" >&2
    exit 1; }
done
echo "hygiene: model knobs and counters agree across config, API and docs"

# Timeout-vocabulary consistency: the deadline surface is one contract
# spoken in four places (env var, flag, JSON status, exit code); a
# rename or removal in any one of them must fail loudly here.
require() { # require <pattern> <file> <what>
  grep -q "$1" "$2" || {
    echo "hygiene: $3 missing from $2" >&2; exit 1; }
}
require 'EO_TIMEOUT_MS' lib/obs/config.ml "EO_TIMEOUT_MS parser"
require 'EO_TIMEOUT_MS' lib/api/api.ml "EO_TIMEOUT_MS fallback"
require 'EO_TIMEOUT_MS' docs/ANALYSES.md "EO_TIMEOUT_MS documentation"
require 'EO_TIMEOUT_MS' README.md "EO_TIMEOUT_MS documentation"
require '"timeout"' bin/eventorder.ml "--timeout flag"
require '\-\-timeout' docs/ANALYSES.md "--timeout documentation"
require '\-\-timeout' README.md "--timeout documentation"
require '"status"' lib/api/api.ml 'JSON "status" field'
require 'exit 3' lib/api/api.ml "exit code 3 on expiry"
require 'code \*\*3\*\*' docs/ANALYSES.md "exit-code-3 documentation"
require '\*\*3\*\*' README.md "exit-code-3 documentation"
require 'Timeout_expirations' lib/obs/counters.ml "timeout counters"
echo "hygiene: timeout vocabulary agrees across config, CLI and docs"

# Triage-vocabulary consistency: the auto engine's tier slices and
# counters are one contract spoken in config, counters, docs and the
# streaming CLI — a rename in any one place must fail loudly here.
for knob in EO_TRIAGE_REACH_NODES EO_TRIAGE_SAT_CONFLICTS EO_TRIAGE_ENUM_NODES; do
  require "$knob" lib/obs/config.ml "$knob parser"
  require "$knob" docs/ANALYSES.md "$knob documentation"
done
for ctr in Triage_approx_hits Triage_reach_hits Triage_sat_hits \
           Triage_enum_hits Triage_escalations; do
  require "$ctr" lib/obs/counters.ml "$ctr counter"
done
for name in triage_tier_hits_approx triage_tier_hits_reach \
            triage_tier_hits_sat triage_tier_hits_enum triage_escalations; do
  require "$name" lib/obs/counters.ml "$name counter name"
  require "$name" docs/PROTOCOL.md "$name protocol documentation"
done
require 'races_stream' lib/api/api.ml "streaming races schema emitter"
echo "hygiene: triage vocabulary agrees across config, counters and docs"

# Schema inventory: every eventorder.*/N document the code can emit
# must be named in docs/PROTOCOL.md — a new (or renamed) schema without
# wire documentation fails here, and so does an error code the protocol
# spec does not list.
schemas=$(grep -rhoE '"eventorder\.[a-z_]+/[0-9]+"' lib bin | tr -d '"' | sort -u)
if [ -z "$schemas" ]; then
  echo "hygiene: could not find any emitted schema strings" >&2
  exit 1
fi
for s in $schemas; do
  grep -qF "\`$s\`" docs/PROTOCOL.md || {
    echo "hygiene: schema '$s' is emitted in code but not documented in docs/PROTOCOL.md" >&2
    exit 1; }
done
codes=$(sed -n 's/.*| \([A-Z][a-z]*\) -> "\([a-z]*\)"$/\2/p' lib/api/api.ml)
if [ -z "$codes" ]; then
  echo "hygiene: could not read the error codes from lib/api/api.ml" >&2
  exit 1
fi
for c in $codes; do
  grep -q "\`$c\`" docs/PROTOCOL.md || {
    echo "hygiene: error code '$c' is emitted in code but not documented in docs/PROTOCOL.md" >&2
    exit 1; }
done
echo "hygiene: every emitted schema and error code is documented in docs/PROTOCOL.md"

# One answer path: every eventorder.*/N document the CLI prints is
# rendered by lib/api, and lib/api's resolver is what picks the engine
# and model, so bin/ spells no schema and never reads or sets the
# engine/model switches.
if grep -n '"eventorder\.\|Engine\.current\|Memmodel\.current\|Engine\.set\|Memmodel\.set' bin/*.ml >&2; then
  echo "hygiene: bin/ renders a schema or reads an engine/model switch itself" >&2
  exit 1
fi
echo "hygiene: the CLI renders documents and resolves settings through lib/api"
