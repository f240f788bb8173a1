#!/bin/sh
# caserve-smoke.sh — end-to-end check of the validation service binary:
# start caserve, run one campaign with a table-backed system through the
# HTTP API, compare its artifacts with `sweep -out` of the same params, and
# require a clean exit on SIGTERM.
#
#	sh scripts/caserve-smoke.sh
#
# Run from the repository root; needs curl. The server listens on
# 127.0.0.1:18080 with a temporary -state directory. It builds the full
# logic table before it listens, so /healthz is polled for up to 30 s. The
# campaign (acasx and none, two presets, 4 samples) must reach "done"
# within 120 s, and its /result and /summary must be byte-identical to the
# files sweep writes.
set -eu
addr=127.0.0.1:18080
work=$(mktemp -d)
pid=
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$work"' EXIT

go build -o "$work/caserve" ./cmd/caserve
go build -o "$work/sweep" ./cmd/sweep

"$work/caserve" -addr "$addr" -state "$work/state" &
pid=$!
i=0
until curl -sf "http://$addr/healthz" >/dev/null; do
	i=$((i + 1))
	if [ $i -ge 300 ]; then
		echo "caserve did not answer /healthz within 30 s" >&2
		exit 1
	fi
	sleep 0.1
done

printf '%s\n' 'campaign.name = smoke' 'campaign.presets = headon, tailchase' \
	'campaign.systems = acasx, none' 'campaign.samples = 4' 'campaign.seed = 3' >"$work/smoke.params"
body=$(awk 'BEGIN { printf "{\"kind\":\"campaign\",\"params\":\"" }
	{ printf "%s\\n", $0 }
	END { printf "\"}" }' "$work/smoke.params")
id=$(curl -sf -d "$body" "http://$addr/jobs" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$id" ]; then
	echo "caserve refused the campaign" >&2
	exit 1
fi

i=0
while :; do
	status=$(curl -sf "http://$addr/jobs/$id" | sed -n 's/.*"status":"\([^"]*\)".*/\1/p')
	case $status in
	done) break ;;
	queued | running) ;;
	*)
		echo "job $id ended $status" >&2
		exit 1
		;;
	esac
	i=$((i + 1))
	if [ $i -ge 1200 ]; then
		echo "job $id not done within 120 s" >&2
		exit 1
	fi
	sleep 0.1
done
curl -sf "http://$addr/jobs/$id/result" >"$work/served.jsonl"
curl -sf "http://$addr/jobs/$id/summary" >"$work/served.summary.txt"

"$work/sweep" -spec "$work/smoke.params" -out "$work/cli" >/dev/null
test -s "$work/cli.jsonl"
cmp "$work/served.jsonl" "$work/cli.jsonl"
cmp "$work/served.summary.txt" "$work/cli.summary.txt"

kill -TERM "$pid"
if wait "$pid"; then
	pid=
else
	code=$?
	pid=
	echo "caserve exited $code on SIGTERM, want 0" >&2
	exit 1
fi
echo "caserve smoke: job $id matches sweep -out; clean SIGTERM exit"
