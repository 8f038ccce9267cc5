#!/usr/bin/env python3
"""Output checks of the CI smoke jobs, one subcommand per check.

Each subcommand reads a report (a JSON file, a text log, or JSON on stdin)
that a bench binary, the daemon or its CLI just wrote, asserts its shape,
and prints one OK line. A failed check raises AssertionError (exit 1).

Usage:
  scripts/smoke.py mc-report PATH            Monte-Carlo suite report
  scripts/smoke.py ablation-report PATH      bench_table3_ablation JSON
  scripts/smoke.py table4-output PATH        bench_table4_contest stdout
  scripts/smoke.py incremental-report PATH   bench_table5_scaling JSON
  scripts/smoke.py trajectory PATH           bench_snapshot.py trajectory
  scripts/smoke.py cache-status < status     `contango-cli status` after two
                                             identical submissions
  scripts/smoke.py queued-job < status       prints the one queued job's id
  scripts/smoke.py constraint-keys           constrained vs legacy reports
                                             in the current directory
"""
import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def mc_report(args):
    report = load(args.path)
    assert report['type'] == 'contango_suite_report', report['type']
    assert report['runs'], 'no runs in the MC report'
    for run in report['runs']:
        assert run['ok'], run
        assert run['mc']['trials'] == 8, run['mc']
        assert run['mc']['skew_p99_ps'] >= run['mc']['skew_p50_ps'] > 0.0
    print('MC JSON OK:', len(report['runs']), 'run(s)')


def ablation_report(args):
    report = load(args.path)
    assert report['type'] == 'contango_ablation_report', report['type']
    removed = [v['removed_pass'] for v in report['variants']]
    assert removed == ['', 'tbsz', 'twsz', 'twsn', 'bwsn'], removed
    for variant in report['variants']:
        for run in variant['report']['runs']:
            assert run['ok'], run
            passes = run['passes']
            names = [p['name'] for p in passes]
            # The removed pass is really gone from the executed pipeline.
            if variant['removed_pass']:
                assert variant['removed_pass'].upper() not in names, names
            else:
                assert names == ['DME', 'REPAIR', 'INSERT', 'POLARITY',
                                 'TBSZ', 'TWSZ', 'TWSN', 'BWSN'], names
            # Every simulation run is one full or one incremental evaluation,
            # and only an incremental one can stop early.
            for counted in [run] + passes:
                assert counted['sim_runs'] == (counted['full_evals'] +
                                               counted['incremental_evals']), counted
                assert 0 <= counted['early_rejects'] <= counted['incremental_evals'], counted
            for p in passes:
                assert p['wall_seconds'] >= 0.0, p
                assert p['cpu_seconds'] >= 0.0, p
                assert p['sim_runs'] >= 0, p
            assert sum(p['sim_runs'] for p in passes) + 1 == run['sim_runs'], run
    print('ablation JSON OK:', len(report['variants']), 'variant(s)')


def table4_output(args):
    with open(args.path) as f:
        lines = f.read().splitlines()
    header = next((l for l in lines if l.startswith('Benchmark')), None)
    assert header is not None, 'no table header in the output'
    for column in ('CONTANGO CLR', 'TUNED CLR', 'WSIZE CLR', 'CONSTR CLR'):
        assert column in header, (column, header)
    rows = [l for l in lines if l.startswith('cns')]
    assert rows, 'no benchmark rows in the output'
    for row in rows:
        assert 'FAILED' not in row, row
        # Name, then CLR/Cap%/CPU for Contango and CLR/Cap% per rung.
        assert len(row.split()) == 10, row
    assert any(l.startswith('Average CLR:') for l in lines), 'no averages'
    print('Table IV output OK:', len(rows), 'row(s)')


def incremental_report(args):
    inc = load(args.path)
    # The incremental engine actually ran, and its counters reconcile.
    assert inc['total_incremental_evals'] > 0, inc
    assert inc['total_sim_runs'] == inc['total_full_evals'] + inc['total_incremental_evals']
    for run in inc['runs']:
        assert run['ok'], run
    print('incremental smoke OK:', len(inc['runs']), 'run(s),',
          inc['total_full_evals'], 'full +',
          inc['total_incremental_evals'], 'incremental evals')


def trajectory(args):
    t = load(args.path)
    assert t['type'] == 'contango_bench_trajectory', t['type']
    assert len(t['points']) == 2, [p['label'] for p in t['points']]
    assert 'scenario' not in t['points'][0]['config']
    assert t['points'][1]['label'] == 'huge-smoke'
    assert t['points'][1]['config']['scenario'] == 'huge'
    print('trajectory OK:', [p['label'] for p in t['points']])


def cache_status(args):
    s = json.load(sys.stdin)
    assert s['type'] == 'status', s
    assert s['submitted'] == 2 and s['completed'] == 2, s
    assert s['cache']['hits'] == 1 and s['cache']['misses'] == 1, s['cache']
    print('cache smoke OK')


def queued_job(args):
    s = json.load(sys.stdin)
    queued = [j['id'] for j in s['jobs'] if j['state'] == 'queued']
    assert len(queued) == 1, s['jobs']
    print(queued[0])


CONSTRAINT_KEYS = ['domain_skews_ps', 'worst_window_violation_ps',
                   'worst_domain_bound_violation_ps', 'constraints_met']


def constraint_keys(args):
    for name in ('multidomain', 'usefulskew'):
        report = load(f'{name}_text.json')
        for run in report['runs']:
            assert run['ok'], run
            for key in CONSTRAINT_KEYS:
                assert key in run, (name, key)
            assert run['worst_window_violation_ps'] >= 0.0, run
            assert run['worst_domain_bound_violation_ps'] >= 0.0, run
            assert isinstance(run['constraints_met'], bool), run
            if name == 'multidomain':
                assert len(run['domain_skews_ps']) >= 2, run

    # The legacy report must not have grown any constraint key.
    ring = load('ring.json')
    for run in ring['runs']:
        assert run['ok'], run
        for key in CONSTRAINT_KEYS:
            assert key not in run, key
    print('constraint JSON keys OK')


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest='check', required=True)

    for name, fn in (('mc-report', mc_report),
                     ('ablation-report', ablation_report),
                     ('table4-output', table4_output),
                     ('incremental-report', incremental_report),
                     ('trajectory', trajectory)):
        p = sub.add_parser(name)
        p.add_argument('path')
        p.set_defaults(fn=fn)
    sub.add_parser('cache-status').set_defaults(fn=cache_status)
    sub.add_parser('queued-job').set_defaults(fn=queued_job)
    sub.add_parser('constraint-keys').set_defaults(fn=constraint_keys)

    args = parser.parse_args()
    args.fn(args)


if __name__ == '__main__':
    main()
