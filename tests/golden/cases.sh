# The golden command set, sourced by check.sh and update.sh. Each
# tests/golden/NAME.txt holds the stdout of `run_case BUILD NAME`,
# where BUILD is a build tree (its bench/ and tools/ binaries).

CASES="fig10_proportional fig11_work_conservation fig12_hdd_fairness
ablation_donation ablation_consistency iocost_sim_host
iocost_sim_fig10_iocost"

run_case() {
    case $2 in
    fig10_proportional | fig11_work_conservation | fig12_hdd_fairness | \
        ablation_donation | ablation_consistency)
        "$1/bench/$2" --jobs 2
        ;;
    iocost_sim_host)
        # The verify skill's host command: the default 10% warm-up.
        "$1/tools/iocost_sim" --device oldgen --controller iocost \
            --seconds 3 --seed 7 --job web:weight=200:depth=32 \
            --job batch:weight=100:depth=32 \
            --job logger:weight=50:rate=500:rw=write:pattern=seq:bs=65536
        ;;
    iocost_sim_fig10_iocost)
        # fig10_proportional's iocost row through the CLI flags; its
        # IOPS are the table row's.
        "$1/tools/iocost_sim" --device oldgen \
            --controller "iocost rlat=250 wlat=2000 min=25 max=100 period=10000" \
            --seconds 20 --warmup 5s --seed 1010 \
            --job high-priority:weight=200:latency_target=200us:depth=16 \
            --job low-priority:weight=100:latency_target=200us:depth=16
        ;;
    *)
        echo "unknown golden case: $2" >&2
        return 2
        ;;
    esac
}
