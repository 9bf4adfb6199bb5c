//! The zonal RC thermal network and its integrator.
//!
//! Every sensing point of the floor plan is a thermal node (zone) with
//! heat capacity `C`; zones exchange heat through distance-weighted
//! couplings (conduction + bulk air motion), lose heat through the
//! envelope toward an effective outdoor temperature, receive internal
//! gains (occupants, lighting, projector) and are cooled by supply air
//! arriving through two outlet *plumes*. Each plume is itself a
//! first-order mixing node between the VAV supply and the room — this
//! cascade is what gives the room its overall **second-order** step
//! response, the property the paper's model comparison (Table I,
//! Figs. 3–4) hinges on.
//!
//! Integration is classic RK4 with inputs held constant across a step
//! (the supervisory dynamics are far slower than the 60 s step used by
//! the runner).
//!
//! The kernel is sparse and allocation-free. Zone couplings are stored
//! as per-node neighbour lists that hold only the pairs inside the
//! coupling cutoff; the per-node plume conductances and the lights-on
//! load are computed once at construction; and
//! [`ZoneNetwork::rk4_step`] works in caller-owned [`Rk4Buffers`].
//! Every floating-point expression keeps the accumulation order and
//! association of the dense reference in this module's tests, which
//! require bitwise-equal results from both.

use serde::{Deserialize, Serialize};

use crate::geometry::Layout;
use crate::hvac::{outlet_of, Outlet, VAV_COUNT};

/// Number of supply-outlet plume nodes.
pub const OUTLET_COUNT: usize = 2;

/// Physical parameters of the zone network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Heat capacity of one zone (air + furniture share), J/K.
    pub zone_capacity: f64,
    /// Heat capacity of one outlet plume node, J/K. Sized so the
    /// supply-air mixing lag is tens of minutes.
    pub mix_capacity: f64,
    /// Zone-to-zone coupling at zero distance, W/K.
    pub zone_coupling: f64,
    /// Length scale of the coupling kernel, m.
    pub coupling_sigma: f64,
    /// Couplings beyond this distance are dropped, m.
    pub coupling_cutoff: f64,
    /// Envelope conductance per zone toward the effective outdoor
    /// temperature, W/K.
    pub envelope_u: f64,
    /// Weight of the true ambient in the effective outdoor
    /// temperature. The room is a basement surrounded mostly by the
    /// conditioned building, so this is small.
    pub ambient_blend: f64,
    /// Temperature of the surrounding conditioned building /
    /// deep-ground mass, °C.
    pub neighbor_temp: f64,
    /// Length scale of supply-plume influence away from an outlet
    /// line, m.
    pub outlet_sigma: f64,
    /// Volumetric heat capacity of air, J/(m³·K).
    pub rho_cp: f64,
    /// Sensible heat per occupant, W.
    pub occupant_heat: f64,
    /// Total lighting load when on, W.
    pub lighting_heat: f64,
    /// Projector load (front of room) when lights are on, W.
    pub projector_heat: f64,
    /// Leak conductance of each plume node toward the room mean, W/K.
    pub mix_leak: f64,
    /// Heat capacity of the hidden thermal mass (furniture, seats,
    /// interior walls) attached to each zone, J/K. These slow stores
    /// are what make the measured room response genuinely higher than
    /// first order.
    pub mass_capacity: f64,
    /// Conductance between each zone and its thermal mass, W/K.
    pub mass_coupling: f64,
    /// Number of hidden (unsensed) air nodes along the room width.
    /// Hidden nodes give the simulated field more degrees of freedom
    /// than the sensor set observes — the partial-observability that
    /// makes a first-order model of the *measurements* insufficient,
    /// exactly as in the real room.
    pub hidden_grid_x: usize,
    /// Number of hidden air nodes front-to-back.
    pub hidden_grid_y: usize,
    /// Outdoor CO₂ concentration, ppm.
    pub co2_ambient_ppm: f64,
    /// CO₂ generation per occupant, m³/s (≈5 mL/s for seated adults).
    pub co2_gen_per_person: f64,
}

impl Default for ThermalParams {
    fn default() -> Self {
        ThermalParams {
            zone_capacity: 1.0e5,
            mix_capacity: 6.0e5,
            zone_coupling: 18.0,
            coupling_sigma: 3.0,
            coupling_cutoff: 6.0,
            envelope_u: 4.0,
            ambient_blend: 0.2,
            neighbor_temp: 23.5,
            outlet_sigma: 2.5,
            rho_cp: 1200.0,
            occupant_heat: 60.0,
            lighting_heat: 2000.0,
            projector_heat: 300.0,
            mix_leak: 30.0,
            mass_capacity: 2.0e6,
            mass_coupling: 45.0,
            hidden_grid_x: 5,
            hidden_grid_y: 6,
            co2_ambient_ppm: 420.0,
            co2_gen_per_person: 5.0e-6,
        }
    }
}

/// Exogenous drive applied over one integration step.
///
/// The heat vectors hold one entry per *air node*: the sensed sites
/// followed by the hidden grid, [`ZoneNetwork::node_count`] entries in
/// all, which is the length [`ZoneNetwork::derivative`] asserts.
#[derive(Debug, Clone, PartialEq)]
pub struct Drive {
    /// Outdoor temperature, °C.
    pub ambient: f64,
    /// Supply-air temperature entering the plumes, °C.
    pub supply_temp: f64,
    /// Air flow delivered to each outlet line, m³/s
    /// (`[front, mid]`).
    pub outlet_flow: [f64; OUTLET_COUNT],
    /// Occupant heat deposited at each air node, W.
    pub occupant_watts: Vec<f64>,
    /// Lighting + projector heat deposited at each air node, W.
    pub lighting_watts: Vec<f64>,
    /// Unmodelled disturbance heat at each air node (drafts, sun
    /// patches), W.
    pub disturbance_watts: Vec<f64>,
}

impl Drive {
    /// A quiescent drive (all zeros, neutral temperatures) for a
    /// network of `nodes` air nodes ([`ZoneNetwork::node_count`]).
    pub fn quiescent(nodes: usize, temp: f64) -> Self {
        Drive {
            ambient: temp,
            supply_temp: temp,
            outlet_flow: [0.0; OUTLET_COUNT],
            occupant_watts: vec![0.0; nodes],
            lighting_watts: vec![0.0; nodes],
            disturbance_watts: vec![0.0; nodes],
        }
    }
}

/// Caller-owned stage buffers for [`ZoneNetwork::rk4_step`]: the four
/// RK4 slopes and the intermediate state. Sized once per network and
/// reused for every step, so stepping never allocates.
#[derive(Debug, Clone)]
pub struct Rk4Buffers {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
}

impl Rk4Buffers {
    /// Buffers for a state vector of `state_len` entries
    /// ([`ZoneNetwork::state_len`]).
    pub fn new(state_len: usize) -> Self {
        Rk4Buffers {
            k1: vec![0.0; state_len],
            k2: vec![0.0; state_len],
            k3: vec![0.0; state_len],
            k4: vec![0.0; state_len],
            tmp: vec![0.0; state_len],
        }
    }
}

/// The assembled thermal network.
///
/// Air nodes are the sensing sites of the layout (first, in
/// [`Layout::sites`] order) followed by a regular grid of *hidden*
/// air nodes that carry field dynamics the sensors do not observe.
/// State layout for `n` air nodes: `state[0..n]` are air
/// temperatures, `state[n..n+2]` the two plume temperatures, and
/// `state[n+2..2n+2]` the hidden thermal-mass temperatures attached
/// to each air node.
#[derive(Debug, Clone)]
pub struct ZoneNetwork {
    layout: Layout,
    params: ThermalParams,
    /// Positions of all air nodes: sensed sites then hidden grid.
    node_pos: Vec<(f64, f64)>,
    /// Symmetric node-to-node conductances (W/K) in compressed sparse
    /// rows: node `i`'s neighbours are
    /// `neighbors[row_start[i]..row_start[i + 1]]`, `(j, k)` pairs in
    /// ascending `j`, holding every nonzero conductance and nothing
    /// else (no diagonal).
    neighbors: Vec<(usize, f64)>,
    /// Row offsets into `neighbors`, `node_count() + 1` of them.
    row_start: Vec<usize>,
    /// `outlet_weight[i][o]`: share of outlet `o`'s supply air
    /// reaching node `i` (columns sum to 1).
    outlet_weight: Vec<[f64; OUTLET_COUNT]>,
    /// `outlet_weight[i][o] * rho_cp`: node `i`'s conductance to
    /// plume `o` per unit outlet flow, J/(m³·K).
    plume_conductance: Vec<[f64; OUTLET_COUNT]>,
    /// Cached per-node seating weights (normalised).
    seat_share_front: Vec<f64>,
    seat_share_back: Vec<f64>,
    /// Per-node lighting + projector load with the lights on, W.
    lights_on_load: Vec<f64>,
}

impl ZoneNetwork {
    /// Builds the network for a layout and parameter set.
    pub fn new(layout: Layout, params: ThermalParams) -> Self {
        // Air nodes: sensed sites first, then the hidden grid.
        let mut node_pos: Vec<(f64, f64)> = layout.sites().iter().map(|s| (s.x, s.y)).collect();
        let (gx, gy) = (params.hidden_grid_x, params.hidden_grid_y);
        for iy in 0..gy {
            for ix in 0..gx {
                let x = layout.width * (ix as f64 + 0.5) / gx as f64;
                let y = layout.depth * (iy as f64 + 0.5) / gy as f64;
                node_pos.push((x, y));
            }
        }
        let n = node_pos.len();
        let dist = |a: (f64, f64), b: (f64, f64)| -> f64 {
            ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
        };

        // Distance-kernel couplings as neighbour lists. Both directions
        // of a pair measure the distance from the lower-indexed node,
        // so they hold the same bits.
        let mut neighbors = Vec::new();
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0);
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let d = dist(node_pos[i.min(j)], node_pos[i.max(j)]);
                if d <= params.coupling_cutoff {
                    let k = params.zone_coupling
                        * (-d * d / (2.0 * params.coupling_sigma * params.coupling_sigma)).exp();
                    if k != 0.0 {
                        neighbors.push((j, k));
                    }
                }
            }
            row_start.push(neighbors.len());
        }

        // Outlet plume weights: Gaussian in distance from each outlet
        // line, normalised per outlet.
        let outlet_y = [layout.outlet_y_front, layout.outlet_y_mid];
        let mut outlet_weight = vec![[0.0; OUTLET_COUNT]; n];
        for o in 0..OUTLET_COUNT {
            let mut total = 0.0;
            for (i, &(_, y)) in node_pos.iter().enumerate() {
                let d = (y - outlet_y[o]).abs();
                let w = (-d * d / (2.0 * params.outlet_sigma * params.outlet_sigma)).exp();
                outlet_weight[i][o] = w;
                total += w;
            }
            if total > 0.0 {
                for w in outlet_weight.iter_mut() {
                    w[o] /= total;
                }
            }
        }
        let plume_conductance = outlet_weight
            .iter()
            .map(|w| w.map(|w| w * params.rho_cp))
            .collect();

        // Seating shares: how occupant heat splits across nodes, for
        // the front (y < 6) and back halves separately.
        let mut seat_share_front = vec![0.0; n];
        let mut seat_share_back = vec![0.0; n];
        let mut front_total = 0.0_f64;
        let mut back_total = 0.0_f64;
        for (i, &(_, y)) in node_pos.iter().enumerate() {
            let w = if y < 2.0 { 0.2 } else { 1.0 };
            if y < 6.0 {
                seat_share_front[i] = w;
                front_total += w;
            } else {
                seat_share_back[i] = w;
                back_total += w;
            }
        }
        for v in seat_share_front.iter_mut() {
            *v /= front_total.max(f64::MIN_POSITIVE);
        }
        for v in seat_share_back.iter_mut() {
            *v /= back_total.max(f64::MIN_POSITIVE);
        }

        // Lights-on load: ceiling-uniform lighting, plus the projector
        // shared by the front-most nodes.
        let near_screen = |y: f64| y < 3.0;
        let uniform = params.lighting_heat / n as f64;
        let screen_nodes = node_pos.iter().filter(|&&(_, y)| near_screen(y)).count();
        let proj_each = if screen_nodes == 0 {
            0.0
        } else {
            params.projector_heat / screen_nodes as f64
        };
        let lights_on_load = node_pos
            .iter()
            .map(|&(_, y)| uniform + if near_screen(y) { proj_each } else { 0.0 })
            .collect();

        ZoneNetwork {
            layout,
            params,
            node_pos,
            neighbors,
            row_start,
            outlet_weight,
            plume_conductance,
            seat_share_front,
            seat_share_back,
            lights_on_load,
        }
    }

    /// The floor-plan layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Positions of all air nodes (sensed sites first, then the
    /// hidden grid), metres.
    pub fn node_positions(&self) -> &[(f64, f64)] {
        &self.node_pos
    }

    /// The parameters in use.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// Number of air nodes (sensed sites + hidden grid nodes).
    pub fn node_count(&self) -> usize {
        self.node_pos.len()
    }

    /// Number of sensed air nodes (the layout's sites); these occupy
    /// the first `sensed_count()` slots of the state vector.
    pub fn sensed_count(&self) -> usize {
        self.layout.site_count()
    }

    /// Length of the state vector (node airs + plume nodes + node
    /// masses).
    pub fn state_len(&self) -> usize {
        2 * self.node_count() + OUTLET_COUNT
    }

    /// A uniform initial state at `temp` °C.
    pub fn initial_state(&self, temp: f64) -> Vec<f64> {
        vec![temp; self.state_len()]
    }

    /// Air temperatures of *all* nodes (sensed first).
    ///
    /// # Panics
    ///
    /// Panics when `state` has the wrong length.
    pub fn node_temps<'a>(&self, state: &'a [f64]) -> &'a [f64] {
        assert_eq!(state.len(), self.state_len(), "bad state length");
        &state[..self.node_count()]
    }

    /// Air temperatures at the sensed sites only.
    ///
    /// # Panics
    ///
    /// Panics when `state` has the wrong length.
    pub fn zone_temps<'a>(&self, state: &'a [f64]) -> &'a [f64] {
        assert_eq!(state.len(), self.state_len(), "bad state length");
        &state[..self.sensed_count()]
    }

    /// Plume temperatures portion of a state.
    ///
    /// # Panics
    ///
    /// Panics when `state` has the wrong length.
    pub fn plume_temps<'a>(&self, state: &'a [f64]) -> &'a [f64] {
        assert_eq!(state.len(), self.state_len(), "bad state length");
        &state[self.node_count()..self.node_count() + OUTLET_COUNT]
    }

    /// Hidden thermal-mass temperatures portion of a state.
    ///
    /// # Panics
    ///
    /// Panics when `state` has the wrong length.
    pub fn mass_temps<'a>(&self, state: &'a [f64]) -> &'a [f64] {
        assert_eq!(state.len(), self.state_len(), "bad state length");
        &state[self.node_count() + OUTLET_COUNT..]
    }

    /// Splits an occupant headcount into per-node watt loads, written
    /// into `out`, given the fraction seated in the front half.
    ///
    /// # Panics
    ///
    /// Panics when `out` does not hold one entry per air node.
    pub fn occupant_load(&self, count: u32, front_fraction: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.node_count(), "bad occupant vector");
        let total = count as f64 * self.params.occupant_heat;
        let ff = front_fraction.clamp(0.0, 1.0);
        for ((q, f), b) in out
            .iter_mut()
            .zip(&self.seat_share_front)
            .zip(&self.seat_share_back)
        {
            *q = total * (ff * f + (1.0 - ff) * b);
        }
    }

    /// Per-node lighting + projector watt loads for a given lighting
    /// state, written into `out`. Lighting is ceiling-uniform; the
    /// projector heats the front-most nodes.
    ///
    /// # Panics
    ///
    /// Panics when `out` does not hold one entry per air node.
    pub fn lighting_load(&self, lights_on: bool, out: &mut [f64]) {
        assert_eq!(out.len(), self.node_count(), "bad lighting vector");
        if lights_on {
            out.copy_from_slice(&self.lights_on_load);
        } else {
            out.fill(0.0);
        }
    }

    /// Effective outdoor temperature (ambient blended with the
    /// surrounding conditioned building).
    pub fn effective_outdoor(&self, ambient: f64) -> f64 {
        self.params.ambient_blend * ambient
            + (1.0 - self.params.ambient_blend) * self.params.neighbor_temp
    }

    /// Time derivative of the state under `drive`, written into `out`
    /// (K/s).
    ///
    /// # Panics
    ///
    /// Panics when `state`/`out` lengths are wrong or drive vectors
    /// are mis-sized.
    pub fn derivative(&self, state: &[f64], drive: &Drive, out: &mut [f64]) {
        let n = self.node_count();
        assert_eq!(state.len(), self.state_len(), "bad state length");
        assert_eq!(out.len(), self.state_len(), "bad output length");
        assert_eq!(drive.occupant_watts.len(), n, "bad occupant vector");
        assert_eq!(drive.lighting_watts.len(), n, "bad lighting vector");
        assert_eq!(drive.disturbance_watts.len(), n, "bad disturbance vector");

        let p = &self.params;
        let t_out = self.effective_outdoor(drive.ambient);
        let zones = &state[..n];
        let plumes = &state[n..n + OUTLET_COUNT];
        let masses = &state[n + OUTLET_COUNT..];
        let room_mean = zones.iter().sum::<f64>() / n as f64;

        for i in 0..n {
            let zi = zones[i];
            let mut q = 0.0;
            // Zone-to-zone exchange, in ascending neighbour order.
            for &(j, k) in &self.neighbors[self.row_start[i]..self.row_start[i + 1]] {
                q += k * (zones[j] - zi);
            }
            // Envelope.
            q += p.envelope_u * (t_out - zi);
            // Hidden thermal mass.
            q += p.mass_coupling * (masses[i] - zi);
            // Supply plumes, associated as (w·ρc)·flow.
            for o in 0..OUTLET_COUNT {
                let g = self.plume_conductance[i][o] * drive.outlet_flow[o];
                q += g * (plumes[o] - zi);
            }
            // Internal gains.
            q += drive.occupant_watts[i] + drive.lighting_watts[i] + drive.disturbance_watts[i];
            out[i] = q / p.zone_capacity;
        }

        // Plume nodes: driven toward the supply temperature by their
        // flow, leaking toward the room mean, and losing what they
        // hand to the zones.
        for o in 0..OUTLET_COUNT {
            let g_supply = p.rho_cp * drive.outlet_flow[o];
            let mut q = g_supply * (drive.supply_temp - plumes[o]);
            q += p.mix_leak * (room_mean - plumes[o]);
            // Heat delivered to zones comes out of the plume, associated
            // as w·(ρc·flow).
            for i in 0..n {
                let g = self.outlet_weight[i][o] * g_supply;
                q -= g * (plumes[o] - zones[i]);
            }
            out[n + o] = q / p.mix_capacity;
        }

        // Hidden masses relax toward their zone air.
        for i in 0..n {
            out[n + OUTLET_COUNT + i] = p.mass_coupling * (zones[i] - masses[i]) / p.mass_capacity;
        }
    }

    /// Advances `state` by `dt` seconds with RK4, holding `drive`
    /// constant. The stages are computed in `buf`, so a step
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when `state` or `buf` is not sized for this network
    /// ([`ZoneNetwork::state_len`]) or the drive vectors are
    /// mis-sized.
    pub fn rk4_step(&self, state: &mut [f64], drive: &Drive, dt: f64, buf: &mut Rk4Buffers) {
        let Rk4Buffers {
            k1,
            k2,
            k3,
            k4,
            tmp,
        } = buf;
        self.derivative(state, drive, k1);
        for ((t, s), k) in tmp.iter_mut().zip(&*state).zip(&*k1) {
            *t = s + 0.5 * dt * k;
        }
        self.derivative(tmp, drive, k2);
        for ((t, s), k) in tmp.iter_mut().zip(&*state).zip(&*k2) {
            *t = s + 0.5 * dt * k;
        }
        self.derivative(tmp, drive, k3);
        for ((t, s), k) in tmp.iter_mut().zip(&*state).zip(&*k3) {
            *t = s + dt * k;
        }
        self.derivative(tmp, drive, k4);
        for (i, s) in state.iter_mut().enumerate() {
            *s += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }

    /// Total flow split into outlet flows using the HVAC box→outlet
    /// mapping.
    pub fn outlet_flows_from_boxes(&self, box_flows: &[f64; VAV_COUNT]) -> [f64; OUTLET_COUNT] {
        let mut out = [0.0; OUTLET_COUNT];
        for (i, f) in box_flows.iter().enumerate() {
            match outlet_of(i) {
                Outlet::Front => out[0] += f,
                Outlet::Mid => out[1] += f,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use thermal_linalg::Matrix;

    fn network() -> ZoneNetwork {
        ZoneNetwork::new(Layout::auditorium(), ThermalParams::default())
    }

    /// Steps `net` `steps` times at 60 s under a constant drive.
    fn run_steps(net: &ZoneNetwork, state: &mut [f64], drive: &Drive, steps: usize) {
        let mut buf = Rk4Buffers::new(net.state_len());
        for _ in 0..steps {
            net.rk4_step(state, drive, 60.0, &mut buf);
        }
    }

    /// The dense reference kernel the sparse one must match bit for
    /// bit: the full `n × n` coupling matrix walked row by row,
    /// skipping zero entries; the plume conductance formed per step;
    /// the lights-on load assembled per call; and RK4 with freshly
    /// allocated stages.
    struct DenseReference<'a> {
        net: &'a ZoneNetwork,
        coupling: Matrix,
    }

    impl<'a> DenseReference<'a> {
        fn new(net: &'a ZoneNetwork) -> Self {
            let p = net.params();
            let node_pos = net.node_positions();
            let n = node_pos.len();
            let dist = |a: (f64, f64), b: (f64, f64)| -> f64 {
                ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
            };
            let mut coupling = Matrix::zeros(n, n);
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = dist(node_pos[i], node_pos[j]);
                    if d <= p.coupling_cutoff {
                        let k = p.zone_coupling
                            * (-d * d / (2.0 * p.coupling_sigma * p.coupling_sigma)).exp();
                        coupling[(i, j)] = k;
                        coupling[(j, i)] = k;
                    }
                }
            }
            DenseReference { net, coupling }
        }

        fn lighting_load(&self, lights_on: bool) -> Vec<f64> {
            let n = self.net.node_count();
            if !lights_on {
                return vec![0.0; n];
            }
            let uniform = self.net.params().lighting_heat / n as f64;
            let front_nodes: Vec<usize> = self
                .net
                .node_positions()
                .iter()
                .enumerate()
                .filter(|(_, &(_, y))| y < 3.0)
                .map(|(i, _)| i)
                .collect();
            let proj_each = if front_nodes.is_empty() {
                0.0
            } else {
                self.net.params().projector_heat / front_nodes.len() as f64
            };
            (0..n)
                .map(|i| {
                    uniform
                        + if front_nodes.contains(&i) {
                            proj_each
                        } else {
                            0.0
                        }
                })
                .collect()
        }

        fn derivative(&self, state: &[f64], drive: &Drive, out: &mut [f64]) {
            let net = self.net;
            let n = net.node_count();
            let p = net.params();
            let t_out = net.effective_outdoor(drive.ambient);
            let zones = &state[..n];
            let plumes = &state[n..n + OUTLET_COUNT];
            let masses = &state[n + OUTLET_COUNT..];
            let room_mean = zones.iter().sum::<f64>() / n as f64;

            for i in 0..n {
                let mut q = 0.0;
                for j in 0..n {
                    let k = self.coupling[(i, j)];
                    if k != 0.0 {
                        q += k * (zones[j] - zones[i]);
                    }
                }
                q += p.envelope_u * (t_out - zones[i]);
                q += p.mass_coupling * (masses[i] - zones[i]);
                for o in 0..OUTLET_COUNT {
                    let g = net.outlet_weight[i][o] * p.rho_cp * drive.outlet_flow[o];
                    q += g * (plumes[o] - zones[i]);
                }
                q += drive.occupant_watts[i] + drive.lighting_watts[i] + drive.disturbance_watts[i];
                out[i] = q / p.zone_capacity;
            }

            for o in 0..OUTLET_COUNT {
                let g_supply = p.rho_cp * drive.outlet_flow[o];
                let mut q = g_supply * (drive.supply_temp - plumes[o]);
                q += p.mix_leak * (room_mean - plumes[o]);
                for i in 0..n {
                    let g = net.outlet_weight[i][o] * g_supply;
                    q -= g * (plumes[o] - zones[i]);
                }
                out[n + o] = q / p.mix_capacity;
            }

            for i in 0..n {
                out[n + OUTLET_COUNT + i] =
                    p.mass_coupling * (zones[i] - masses[i]) / p.mass_capacity;
            }
        }

        fn rk4_step(&self, state: &mut [f64], drive: &Drive, dt: f64) {
            let len = state.len();
            let mut k1 = vec![0.0; len];
            let mut k2 = vec![0.0; len];
            let mut k3 = vec![0.0; len];
            let mut k4 = vec![0.0; len];
            let mut tmp = vec![0.0; len];

            self.derivative(state, drive, &mut k1);
            for i in 0..len {
                tmp[i] = state[i] + 0.5 * dt * k1[i];
            }
            self.derivative(&tmp, drive, &mut k2);
            for i in 0..len {
                tmp[i] = state[i] + 0.5 * dt * k2[i];
            }
            self.derivative(&tmp, drive, &mut k3);
            for i in 0..len {
                tmp[i] = state[i] + dt * k3[i];
            }
            self.derivative(&tmp, drive, &mut k4);
            for i in 0..len {
                state[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
        }
    }

    /// The oracle's networks. `layout` 0 is the auditorium, otherwise
    /// a parametric room across the fleet envelope (2–4 × 3–5 sensor
    /// grid, 12–24 m × 15–30 m). `coupling` 0 keeps the defaults, 1
    /// drops zone coupling (every neighbour list empty), 2 puts the
    /// cutoff beyond any room diagonal (every list full).
    fn oracle_network(
        layout: usize,
        coupling: usize,
        grid: (usize, usize),
        room: (f64, f64),
        jitter: u64,
    ) -> ZoneNetwork {
        let layout = if layout == 0 {
            Layout::auditorium()
        } else {
            Layout::parametric(room.0, room.1, 6.0, grid.0, grid.1, jitter)
                .expect("fleet-envelope layout is valid")
        };
        let defaults = ThermalParams::default();
        let params = match coupling {
            0 => defaults,
            1 => ThermalParams {
                zone_coupling: 0.0,
                ..defaults
            },
            _ => ThermalParams {
                coupling_cutoff: 100.0,
                ..defaults
            },
        };
        let net = ZoneNetwork::new(layout, params);
        let n = net.node_count();
        match coupling {
            0 => assert!(net.neighbors.len() < n * (n - 1), "the cutoff drops pairs"),
            1 => assert!(net.neighbors.is_empty(), "zero coupling leaves no pairs"),
            _ => assert_eq!(net.neighbors.len(), n * (n - 1), "every pair coupled"),
        }
        net
    }

    /// A random drive: any flow (none included), loads from the
    /// network's own load methods (the lighting load checked against
    /// the reference), and per-node disturbances.
    fn random_drive(net: &ZoneNetwork, reference: &DenseReference<'_>, rng: &mut StdRng) -> Drive {
        let mut drive = Drive::quiescent(net.node_count(), 20.0);
        drive.ambient = rng.gen_range(-15.0..35.0);
        drive.supply_temp = rng.gen_range(10.0..24.0);
        for f in drive.outlet_flow.iter_mut() {
            *f = if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(0.0..1.5)
            };
        }
        let count = rng.gen_range(0u32..200);
        net.occupant_load(count, rng.gen_range(-0.2..1.2), &mut drive.occupant_watts);
        let lights = rng.gen_bool(0.5);
        net.lighting_load(lights, &mut drive.lighting_watts);
        assert_eq!(
            bits(&drive.lighting_watts),
            bits(&reference.lighting_load(lights)),
            "lighting load differs from the reference"
        );
        for d in drive.disturbance_watts.iter_mut() {
            *d = rng.gen_range(-300.0..300.0);
        }
        drive
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sparse kernel is bit-identical to the dense reference:
        /// one derivative at a random state, then 60 chained RK4 steps
        /// under a fresh random drive each step.
        #[test]
        fn sparse_kernel_matches_dense_reference(
            layout in 0usize..3,
            coupling in 0usize..3,
            grid in (2usize..=4, 3usize..=5),
            room in (12.0_f64..=24.0, 15.0_f64..=30.0),
            seed in any::<u64>(),
        ) {
            let net = oracle_network(layout, coupling, grid, room, seed);
            let reference = DenseReference::new(&net);
            let mut rng = StdRng::seed_from_u64(seed);
            let len = net.state_len();
            let state: Vec<f64> = (0..len).map(|_| rng.gen_range(5.0..35.0)).collect();

            let drive = random_drive(&net, &reference, &mut rng);
            let mut sparse = vec![0.0; len];
            let mut dense = vec![0.0; len];
            net.derivative(&state, &drive, &mut sparse);
            reference.derivative(&state, &drive, &mut dense);
            prop_assert_eq!(bits(&sparse), bits(&dense), "derivative differs");

            let mut sparse = state.clone();
            let mut dense = state;
            let mut buf = Rk4Buffers::new(len);
            for step in 0..60 {
                let drive = random_drive(&net, &reference, &mut rng);
                net.rk4_step(&mut sparse, &drive, 60.0, &mut buf);
                reference.rk4_step(&mut dense, &drive, 60.0);
                prop_assert_eq!(bits(&sparse), bits(&dense), "state differs after step {}", step);
            }
        }
    }

    #[test]
    fn equilibrium_is_stationary() {
        let net = network();
        let temp = net.params().neighbor_temp;
        let state = net.initial_state(temp); // neighbour temp, neutral everything
        let mut drive = Drive::quiescent(net.node_count(), temp);
        drive.ambient = temp; // effective outdoor equals the state
        let mut out = vec![0.0; net.state_len()];
        net.derivative(&state, &drive, &mut out);
        for d in out {
            assert!(
                d.abs() < 1e-12,
                "derivative {d} should vanish at equilibrium"
            );
        }
    }

    #[test]
    fn heating_load_raises_temperature() {
        let net = network();
        let mut state = net.initial_state(20.0);
        let mut drive = Drive::quiescent(net.node_count(), 20.0);
        drive.ambient = 12.0; // effective outdoor 20 -> neutral envelope
        net.occupant_load(90, 0.4, &mut drive.occupant_watts);
        let before = net.zone_temps(&state).to_vec();
        run_steps(&net, &mut state, &drive, 60);
        let after = net.zone_temps(&state);
        let mean_before: f64 = before.iter().sum::<f64>() / before.len() as f64;
        let mean_after: f64 = after.iter().sum::<f64>() / after.len() as f64;
        assert!(
            mean_after > mean_before + 0.5,
            "90 occupants for an hour should warm the room: {mean_before} -> {mean_after}"
        );
    }

    #[test]
    fn cooling_flow_lowers_front_more_than_back() {
        let net = network();
        let mut state = net.initial_state(22.0);
        let mut drive = Drive::quiescent(net.node_count(), 22.0);
        drive.ambient = 22.0; // effective outdoor 22: neutral envelope
        drive.supply_temp = 13.0;
        drive.outlet_flow = [0.8, 0.8];
        run_steps(&net, &mut state, &drive, 120);
        let temps = net.zone_temps(&state);
        let layout = net.layout().clone();
        let (mut front_sum, mut front_n, mut back_sum, mut back_n) = (0.0, 0, 0.0, 0);
        for (i, s) in layout.sites().iter().enumerate() {
            if s.y < 5.0 {
                front_sum += temps[i];
                front_n += 1;
            } else if s.y > 7.0 {
                back_sum += temps[i];
                back_n += 1;
            }
        }
        let front = front_sum / front_n as f64;
        let back = back_sum / back_n as f64;
        assert!(
            back - front > 0.5,
            "front should be cooler than back under supply cooling: front={front:.2} back={back:.2}"
        );
    }

    #[test]
    fn occupant_load_conserves_total_power() {
        let net = network();
        let load = |ff: f64| -> Vec<f64> {
            let mut out = vec![0.0; net.node_count()];
            net.occupant_load(60, ff, &mut out);
            out
        };
        for ff in [0.0, 0.3, 0.7, 1.0] {
            let load = load(ff);
            let total: f64 = load.iter().sum();
            let expected = 60.0 * net.params().occupant_heat;
            assert!((total - expected).abs() < 1e-9, "ff={ff}");
            assert!(load.iter().all(|&q| q >= 0.0));
        }
        // Front fraction moves heat forward.
        let layout = net.layout().clone();
        let front_heat = |load: &[f64]| -> f64 {
            layout
                .sites()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.y < 6.0)
                .map(|(i, _)| load[i])
                .sum()
        };
        let lo = load(0.2);
        let hi = load(0.8);
        assert!(front_heat(&hi) > front_heat(&lo));
    }

    #[test]
    fn lighting_load_profile() {
        let net = network();
        let p = net.params();
        let mut load = vec![0.0; net.node_count()];
        net.lighting_load(true, &mut load);
        let total: f64 = load.iter().sum();
        assert!((total - p.lighting_heat - p.projector_heat).abs() < 1e-9);
        // Switching off clears the reused buffer.
        net.lighting_load(false, &mut load);
        assert!(load.iter().all(|&q| q == 0.0));
    }

    #[test]
    fn plume_lags_supply_step() {
        // Step the supply temperature down; the plume approaches it
        // with a visible lag (tens of minutes), the signature of the
        // intended second-order room response.
        let net = network();
        let mut state = net.initial_state(21.0);
        let mut drive = Drive::quiescent(net.node_count(), 21.0);
        drive.ambient = 22.0;
        drive.supply_temp = 13.0;
        drive.outlet_flow = [0.5, 0.5];
        // After 5 minutes the plume has moved but is far from settled.
        run_steps(&net, &mut state, &drive, 5);
        let plume_5m = net.plume_temps(&state)[0];
        assert!(plume_5m < 21.0 - 0.2, "plume should start cooling");
        assert!(plume_5m > 14.0, "plume must not settle instantly");
        // After 3 hours it is close to a steady value well below room.
        run_steps(&net, &mut state, &drive, 175);
        let plume_3h = net.plume_temps(&state)[0];
        assert!(plume_3h < plume_5m - 1.0);
    }

    #[test]
    fn outlet_weights_are_normalised() {
        let net = network();
        for o in 0..OUTLET_COUNT {
            let total: f64 = (0..net.node_count()).map(|i| net.outlet_weight[i][o]).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn box_to_outlet_aggregation() {
        let net = network();
        let flows = net.outlet_flows_from_boxes(&[0.1, 0.2, 0.3, 0.4]);
        assert!((flows[0] - 0.3).abs() < 1e-12);
        assert!((flows[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn rk4_matches_analytic_single_pole() {
        // With zone coupling and loads off, the plume with constant
        // flow follows dT/dt = (g/C)(Ts - T) exactly; compare RK4 to
        // the closed form.
        let params = ThermalParams {
            zone_coupling: 0.0,
            envelope_u: 0.0,
            mix_leak: 0.0,
            ..ThermalParams::default()
        };
        let layout = Layout::auditorium();
        let net = ZoneNetwork::new(layout, params.clone());
        let mut state = net.initial_state(21.0);
        let mut drive = Drive::quiescent(net.node_count(), 21.0);
        drive.supply_temp = 13.0;
        drive.outlet_flow = [0.5, 0.0];
        // Analytic: the plume exchanges with supply AND with zones
        // (delivered heat), net conductance g_total = g_supply +
        // sum_i w_io * g_supply = 2 g_supply toward a mix of supply
        // and zone temps; with all zones pinned at 21 (they move
        // slowly relative to one step) check one short step only.
        let g = params.rho_cp * 0.5;
        let c = params.mix_capacity;
        let dt = 30.0;
        let t0 = 21.0;
        // dT/dt = g/c (13 - T) + g/c (21 - T) => toward 17 with rate 2g/c.
        let rate = 2.0 * g / c;
        let target = 17.0;
        let analytic = target + (t0 - target) * (-rate * dt).exp();
        let mut buf = Rk4Buffers::new(net.state_len());
        net.rk4_step(&mut state, &drive, dt, &mut buf);
        let plume = net.plume_temps(&state)[0];
        // Zones drift slightly during the step (they absorb plume
        // heat), so allow a small tolerance around the frozen-zone
        // closed form.
        assert!(
            (plume - analytic).abs() < 1e-2,
            "rk4 {plume} vs analytic {analytic}"
        );
    }

    #[test]
    #[should_panic(expected = "bad state length")]
    fn wrong_state_length_panics() {
        let net = network();
        let mut out = vec![0.0; net.state_len()];
        let drive = Drive::quiescent(net.node_count(), 20.0);
        net.derivative(&[1.0, 2.0], &drive, &mut out);
    }
}
