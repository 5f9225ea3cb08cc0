# Developer entry points.  `make check` is the PR gate: full build, the
# whole test suite, the seeded chaos run, and a quick-scale smoke run of
# the executor benchmark that must exit 0 and leave valid JSON behind.

BENCH_JSON := /tmp/bench_exec_smoke.json
BENCH_PERSO_JSON := /tmp/bench_perso_smoke.json
BENCH_STORE_JSON := /tmp/bench_store_smoke.json
CHAOS_SEED ?= 1337

SIM_SEED ?= 1
SIM_RUNS ?= 500

PAIRS ?= 10
SEED ?= 100

.PHONY: all build test bench bench-ab bench-exec chaos crash-recovery scrub-sweep serve-smoke sim check clean

all: build

build:
	dune build

test: build
	dune runtest

bench: build
	dune exec bench/main.exe

# Deterministic fault-injection run: the §7 random workload under a 5%
# seeded fault rate; every query must end in a result or a typed error.
# A failure prints the seed so the exact fault schedule replays.
chaos: build
	@CHAOS_SEED=$(CHAOS_SEED) dune exec test/test_chaos.exe || \
	  { echo "chaos: FAILED — replay with CHAOS_SEED=$(CHAOS_SEED) make chaos"; exit 1; }

# Deterministic crash-recovery sweep: replay the durable-store workload
# killing the process at every seeded storage chaos point (torn write,
# short write, fsync failure, hard crash at each WAL/manifest/compaction
# crossing), reopen, and require the recovered state to equal the
# committed prefix.  Runs as part of `dune runtest` too; this target is
# the direct entry point.
crash-recovery: build
	dune exec test/test_store_crash.exe

# Deterministic corruption sweep over one store: every committed file
# x every corruption kind (early/late byte flip, torn tail, a CRC-valid
# record that does not decode).  Each case
# must fail with the typed error or count the torn-tail truncation, and
# the read-only scrubber must agree with recovery.  Runs as part of
# `dune runtest` too; this target is the direct entry point.
scrub-sweep: build
	dune exec test/test_scrub_sweep.exe

# The server smoke test: start `perso serve` on a Unix socket, drive
# RUN / PROFILE SAVE / PERSONALIZE / HEALTH / SHUTDOWN through
# `perso call`, and check the drain outcome (test/serve.t).
serve-smoke: build
	dune build @serve

# Deterministic simulation: seeded client fleets against the server
# core under a virtual clock, invariant audits with trace shrinking,
# the metamorphic oracle layer, and the mutation self-test (the
# injected ledger bug must be caught and shrunk to <= 10 steps).  The
# default sweep is seeds 1-500, a few seconds.
# Failures print the exact `perso_cli sim --seed ... --steps ...`
# replay line.
sim: build
	@dune exec bin/perso_cli.exe -- sim --seed $(SIM_SEED) --runs $(SIM_RUNS) || \
	  { echo "sim: FAILED — replay with the printed 'perso_cli sim --seed ... --steps ...' line"; exit 1; }
	@dune exec bin/perso_cli.exe -- sim --mutate --seed $(SIM_SEED) --runs $(SIM_RUNS)

# Executor benchmark smoke: run `bench exec` at quick scale (the §7
# figure workloads and the served shape through the executor, and the
# sharded store at 1/4/8 shards) and require valid JSON with
# sharded-store figures, the served-shape figure, and a positive
# allocated-words count for every figure.  The served-shape figures are
# served_mq_k5 and served_mq_k5_pinned (queries whose own WHERE pins
# their projection).  The sq_integrate section times Integrate.sq alone
# at (K, L) = (20, 3), (30, 3) and (40, 4); the join_kernels section an
# index-nested-loop join and an int- and a string-keyed hash join.
bench-exec: build
	BENCH_SCALE=quick BENCH_EXEC_OUT=$(BENCH_JSON) dune exec bench/main.exe -- exec
	python3 -m json.tool $(BENCH_JSON) > /dev/null
	@python3 -c "import json,sys; d=json.load(open('$(BENCH_JSON)')); \
	sys.exit(0 if d['sharded_store']['configs'] else sys.stderr.write('bench-exec: no sharded_store configs\n') or 1)" \
	  && python3 -c "import json,sys; d=json.load(open('$(BENCH_JSON)')); \
	names=[f['name'] for f in d['figures']]; miss=[n for n in ('served_mq_k5', 'served_mq_k5_pinned') if n not in names]; \
	sys.exit(0 if not miss else sys.stderr.write('bench-exec: no %s figure\n' % ' or '.join(miss)) or 1)" \
	  && python3 -c "import json,sys; d=json.load(open('$(BENCH_JSON)')); \
	bad=[f['name'] for f in d['figures'] if not f.get('words_per_query', 0) > 0]; \
	sys.exit(0 if d['figures'] and not bad else sys.stderr.write('bench-exec: no words_per_query for %s\n' % (bad or 'any figure')) or 1)" \
	  && python3 -c "import json,sys; d=json.load(open('$(BENCH_JSON)')); \
	pts=d.get('sq_integrate', {}).get('points', []); \
	ok=[(p['k'], p['l']) for p in pts if p['calls'] > 0 and p['words_per_call'] > 0] == [(20, 3), (30, 3), (40, 4)]; \
	sys.exit(0 if ok else sys.stderr.write('bench-exec: no sq_integrate points at (K, L) = (20, 3), (30, 3), (40, 4)\n') or 1)" \
	  && python3 -c "import json,sys; d=json.load(open('$(BENCH_JSON)')); \
	ks=d.get('join_kernels', []); \
	ok=[k['name'] for k in ks if k['ns_per_probe_row'] > 0 and k['words_per_call'] > 0] == ['inlj_directed_movie', 'hash_int_cast_movie', 'hash_str_cast_movie']; \
	sys.exit(0 if ok else sys.stderr.write('bench-exec: no join_kernels figures with positive ns_per_probe_row and words_per_call\n') or 1)" \
	  && echo "bench-exec: OK (see $(BENCH_JSON): figures with words per query, served_mq_k5 and served_mq_k5_pinned among them, + sharded_store + sq_integrate + join_kernels)"

# Alternating A/B of the working tree against REV over the repository
# benchmark (BENCHMARK.json, bench/perf/): PAIRS pairs per
# workload, pair i on seed SEED+i, with each metric's verdict (gain, no
# change, regression, unresolved) by the rule in bench/perf/README.md.
bench-ab:
	@test -n "$(REV)" || { echo "usage: make bench-ab REV=<rev> [PAIRS=10] [SEED=100]"; exit 2; }
	bash bench/perf/ab.sh $(REV) $(PAIRS) $(SEED)

check: build test chaos crash-recovery scrub-sweep serve-smoke sim bench-exec
	BENCH_SCALE=quick BENCH_PERSO_OUT=$(BENCH_PERSO_JSON) dune exec bench/main.exe -- perso
	python3 -m json.tool $(BENCH_PERSO_JSON) > /dev/null
	@python3 -c "import json,sys; d=json.load(open('$(BENCH_PERSO_JSON)')); s=d['speedup_warm']; sys.exit(0 if s >= 5 else sys.stderr.write('plan cache: warm speedup %.1fx < 5x\n' % s) or 1)"
	@python3 -c "import json,sys; m=json.load(open('$(BENCH_PERSO_JSON)')).get('profile_miss', {}); \
	sys.exit(0 if m.get('us_per_miss', 0) > 0 and m.get('words_per_miss', 0) > 0 else sys.stderr.write('bench perso: no profile_miss us_per_miss/words_per_miss\n') or 1)"
	BENCH_SCALE=quick BENCH_STORE_OUT=$(BENCH_STORE_JSON) dune exec bench/main.exe -- store
	python3 -m json.tool $(BENCH_STORE_JSON) > /dev/null
	@python3 -c "import json,sys; d=json.load(open('$(BENCH_STORE_JSON)')); \
	r=d['recovery']; rt=d.get('root', {}); \
	ok=r['records'] > 0 and r['reopen_ms'] >= 0 and d['sizes'] and rt.get('create_cpu_ms', 0) > 0 and rt.get('reopen_cpu_ms', 0) > 0; \
	sys.exit(0 if ok else sys.stderr.write('bench store: no recovery, sizes, or root create_cpu_ms/reopen_cpu_ms\\n') or 1)"
	@python3 -c "import json,sys; d=json.load(open('$(BENCH_STORE_JSON)')); \
	w=d['workload']; ok=w.get('compactions', 0) > 0 and 'rotations' not in w and d['compaction']['segments_after'] == 1; \
	sys.exit(0 if ok else sys.stderr.write('bench store: the workload reached no automatic maintenance, or maintenance left other than one segment\\n') or 1)"
	@echo "check: OK ($(BENCH_JSON), $(BENCH_PERSO_JSON), $(BENCH_STORE_JSON) valid; plan-cache warm >= 5x; profile_miss measured; store maintenance reached)"

clean:
	dune clean
