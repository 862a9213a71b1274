//! `c3::Job` builder: the substrate spec a job launches with reflects the
//! chaos plan's network faults merged into the builder's network model.

mod util;

use c3::{C3Config, ChaosPlan, FailAt, FailurePlan, Job};
use mpisim::NetModel;
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
    assert!(matches!(spec.net.reorder, mpisim::ReorderModel::Random { .. }));
}
