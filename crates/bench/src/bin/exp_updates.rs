//! §5.2 — Handling sensor updates.
//!
//! Paper: "A single OA is typically able to handle 200 updates a second
//! in our current prototype. The total number of updates that can be
//! handled by the system scales linearly with the number of OAs among
//! which the data is distributed."
//!
//! We drive an open-loop update stream at increasing offered rates against
//! 1..8 OAs and report the sustained completion rate. The knee of each
//! curve is the capacity; it should sit at ~200/s per OA and scale
//! linearly.

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb};
use irisnet_core::{Message, OaConfig, OrganizingAgent};
use simnet::{CostModel, DesCluster};

fn capacity_run(num_oas: usize, offered_rate: f64, duration: f64) -> f64 {
    let db = ParkingDb::generate(DbParams::small(), 1);
    // Calibrated to the paper's prototype: 5 ms of CPU per sensor update
    // (update + timestamping in the site database) ⇒ 200 updates/s per OA.
    let costs = CostModel {
        update_cpu: 0.005,
        msg_overhead: 0.0,
        ..CostModel::default()
    };
    let mut sim = DesCluster::new(costs);

    // Blocks spread over the OAs; each owns its subtree.
    let agents: Vec<OrganizingAgent> = (1..=num_oas as u32)
        .map(|a| OrganizingAgent::new(SiteAddr(a), db.service.clone(), OaConfig::default()))
        .collect();
    let blocks = db.all_block_paths();
    let mut owner_of = Vec::with_capacity(blocks.len());
    for (i, bp) in blocks.iter().enumerate() {
        let site = i % num_oas;
        agents[site]
            .db_mut()
            .bootstrap_owned(&db.master, bp, true)
            .expect("bootstrap block");
        owner_of.push(SiteAddr(site as u32 + 1));
    }
    for a in agents {
        let addr = a.addr;
        db.service.register_owner(&mut sim.dns, &db.root_path(), addr);
        sim.add_site(a);
    }

    // Open-loop updates round-robin over all spaces at the offered rate.
    let spaces = db.all_space_paths();
    let spb = db.params.spaces_per_block;
    let total = (offered_rate * duration) as usize;
    for k in 0..total {
        let at = k as f64 / offered_rate;
        let sp = &spaces[k % spaces.len()];
        let block_idx = (k % spaces.len()) / spb;
        let to = owner_of[block_idx];
        sim.schedule_message(
            at,
            to,
            Message::Update {
                path: sp.clone(),
                fields: vec![(
                    "available".to_string(),
                    if k % 2 == 0 { "yes" } else { "no" }.to_string(),
                )],
            },
        );
    }
    sim.run_until(duration);
    // Capacity = updates whose *service* completed within the horizon.
    let done = sim
        .update_completions
        .iter()
        .filter(|&&t| t <= duration)
        .count();
    done as f64 / duration
}

fn main() {
    println!("== §5.2: sensor update throughput ==");
    println!("(paper: ~200 updates/s per OA, scaling linearly with #OAs)\n");
    println!("{:>6} {:>14} {:>16} {:>14}", "OAs", "offered (/s)", "sustained (/s)", "per-OA (/s)");
    let duration = 30.0;
    for num_oas in [1usize, 2, 4, 8] {
        // Offer well past saturation to find the capacity.
        let offered = 400.0 * num_oas as f64;
        let sustained = capacity_run(num_oas, offered, duration);
        println!(
            "{:>6} {:>14.0} {:>16.1} {:>14.1}",
            num_oas,
            offered,
            sustained,
            sustained / num_oas as f64
        );
    }
    println!("\n(capacity per OA = 1 / update_cpu = 1 / 5ms = 200/s, matching the paper's");
    println!(" prototype; total capacity scales linearly with the number of OAs.)");
}
