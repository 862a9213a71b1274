//! `c3::Job` builder: the substrate spec a job launches with is the spec it
//! was built from, with the chaos plan's network faults merged into its
//! network model.

mod util;

use c3::{C3Config, ChaosPlan, FailAt, FailurePlan, Job};
use mpisim::{ClusterModel, JobSpec, NetModel, SchedMode};
use util::TempStore;

const NRANKS: usize = 3;

#[test]
fn spec_reflects_merged_network_faults() {
    let store = TempStore::new("rt-spec");
    let job = Job::new(NRANKS, C3Config::passive(store.path()))
        .network(NetModel::reliable().seed(7))
        .chaos(ChaosPlan::new(vec![FailurePlan { rank: 0, when: FailAt::Pragma(2) }]).with_net(
            c3::NetFault {
                drop_permille: 20,
                dup_permille: 10,
                reorder: true,
                mailbox_capacity: None,
            },
        ));
    let spec = job.spec();
    assert_eq!(spec.nranks, NRANKS);
    assert_eq!(spec.net.drop_permille, 20);
    assert_eq!(spec.net.dup_permille, 10);
    assert_eq!(spec.net.seed, 7);
    assert!(spec.net.reorder);
}

#[test]
fn spec_without_net_faults_is_the_spec_it_was_built_from() {
    let store = TempStore::new("rt-spec-same");
    let spec = JobSpec::new(NRANKS)
        .cluster(ClusterModel::lemieux())
        .net(NetModel::reorder(5).drop_rate(30).mailbox_capacity(6))
        .sched(SchedMode::EventDriven { workers: 1 });
    let plan = ChaosPlan::new(vec![FailurePlan { rank: 1, when: FailAt::Pragma(3) }]);
    let got = Job::from_spec(&spec, C3Config::passive(store.path())).chaos(plan).spec();
    assert_eq!(got.nranks, spec.nranks);
    assert_eq!(got.cluster, spec.cluster);
    assert_eq!(got.sched, spec.sched);
    assert_eq!(got.net, spec.net);
}
