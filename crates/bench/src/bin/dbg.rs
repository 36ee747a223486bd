use ocelot_core::ops::{groupby, project, select};
use ocelot_core::OcelotContext;
fn main() {
    for ctx in [OcelotContext::cpu(), OcelotContext::gpu(), OcelotContext::cpu_sequential()] {
        let a: Vec<i32> = (0..2000).map(|i| i % 100).collect();
        let c: Vec<i32> = (0..2000).map(|i| i % 7).collect();
        let ca = ctx.upload_i32(&a, "a").unwrap();
        let cc = ctx.upload_i32(&c, "c").unwrap();
        let bm = select::select_range_i32(&ctx, &ca, 10, 39).unwrap();
        let sel = select::materialize_bitmap(&ctx, &bm).unwrap();
        let c_sel = project::fetch_join(&ctx, &cc, &sel).unwrap();
        let vals = c_sel.read(&ctx).unwrap();
        let distinct: std::collections::HashSet<i32> = vals.iter().copied().collect();
        println!(
            "{:?} sel_len={} c_sel distinct={} flushes={}",
            ctx.device().info().kind,
            sel.len(&ctx).unwrap(),
            distinct.len(),
            ctx.queue().flush_count()
        );
        let g = groupby::group_by_hash(&ctx, &c_sel).unwrap();
        println!("   num_groups={}", g.num_groups);
    }
}
