set -x
cd "$(dirname "$0")/.."
python jobs/table1_example.py               > results/table1.txt 2> results/table1.err
python jobs/table2_ml1m_stats.py --scale 1.0 > results/table2.txt 2> results/table2.err
python jobs/table3_synth_stats.py --scale 1.0 > results/table3.txt 2> results/table3.err
python jobs/quality_sweep.py --scale 0.05 --users 10 --items 10 --k 10 > results/quality.txt 2> results/quality.err
python jobs/scalability.py --scale 0.25 > results/scalability.txt 2> results/scalability.err
python jobs/recency_sweep.py --scale 0.05 --users 10 > results/recency.txt 2> results/recency.err
echo ALL_DONE
