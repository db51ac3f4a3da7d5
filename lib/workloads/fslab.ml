(* Factories for every file system under evaluation, behind one label, so
   benchmark tables can iterate over systems uniformly.

   Each call builds a fresh simulated NVM device and a freshly formatted
   file system; ZoFS additionally builds KernFS and a per-process FSLibs
   dispatcher. *)

module V = Treasury.Vfs

type system =
  | Zofs
  | Zofs_variant of Zofs.Ufs.variant * string  (* variant + label suffix *)
  | Ext4_dax
  | Pmfs
  | Pmfs_nocache
  | Nova
  | Nova_noindex
  | Novai
  | Novai_noindex
  | Strata

let label = function
  | Zofs -> "ZoFS"
  | Zofs_variant (_, l) -> l
  | Ext4_dax -> "Ext4-DAX"
  | Pmfs -> "PMFS"
  | Pmfs_nocache -> "PMFS-nocache"
  | Nova -> "NOVA"
  | Nova_noindex -> "NOVA-noindex"
  | Novai -> "NOVAi"
  | Novai_noindex -> "NOVAi-noindex"
  | Strata -> "Strata"

type instance = {
  fs : V.fs;
  sys : system;
  (* ZoFS internals, exposed for coffer-level benchmarks *)
  kernfs : Treasury.Kernfs.t option;
  device : Nvm.Device.t;
}

(* Build a ZoFS world and an FSLibs instance for the calling process. *)
let make_zofs ?(root_mode = 0o755) ~pages ~perf () =
  let dev = Nvm.Device.create ~perf ~size:(pages * Nvm.page_size) () in
  let mpk = Mpk.create dev in
  (* No-ops unless the check gate enabled the checkers / obs is enabled;
     attaching before mkfs lets the checker see the root structures get
     registered.  Both attach as independent trace subscribers. *)
  Check.auto_attach dev mpk;
  Race.auto_attach dev mpk;
  Obs.attach_device dev;
  (* Root is 0755: its rw-permission class (0644) matches the 0644 files
     the workloads create, so they share the root coffer as the paper's
     grouping analysis predicts. *)
  let kfs =
    Treasury.Kernfs.mkfs dev mpk ~nbuckets:4096 ~root_ctype:Zofs.Ufs.ctype
      ~root_mode ~root_uid:0 ~root_gid:0 ()
  in
  Zofs.Ufs.mkfs kfs;
  (dev, kfs)

(* The one FSLib constructor: a dispatcher serving ZoFS.  FSLibs must be
   instantiated per process (it holds the FD table and the mapped-coffer
   cache), inside a sim thread of that process: fs_mount registers its pid.
   Callers that want online repair wire [Dispatcher.set_repair] themselves. *)
let zofs_dispatcher ?variant kfs =
  let disp = Treasury.Dispatcher.create kfs in
  Treasury.Dispatcher.register_ufs disp (module Zofs.Ufs)
    (Zofs.Ufs.create ?variant kfs);
  disp

let zofs_fslib ?variant kfs =
  Treasury.Dispatcher.as_vfs (zofs_dispatcher ?variant kfs)

let make ?(pages = 65536) ?(perf = Nvm.Perf.optane) sys : instance =
  let inst =
    match sys with
  | Zofs ->
      let dev, kfs = make_zofs ~pages ~perf () in
      { fs = zofs_fslib kfs; sys; kernfs = Some kfs; device = dev }
  | Zofs_variant (variant, _) ->
      let dev, kfs = make_zofs ~pages ~perf () in
      { fs = zofs_fslib ~variant kfs; sys; kernfs = Some kfs; device = dev }
  | Ext4_dax ->
      let t = Baselines.Ext4_dax.create ~pages ~perf () in
      {
        fs = V.Fs ((module Baselines.Engine_vfs), t);
        sys;
        kernfs = None;
        device = t.Baselines.Engine.dev;
      }
  | Pmfs ->
      let t = Baselines.Pmfs.create ~pages ~perf () in
      {
        fs = V.Fs ((module Baselines.Engine_vfs), t);
        sys;
        kernfs = None;
        device = t.Baselines.Engine.dev;
      }
  | Pmfs_nocache ->
      let t = Baselines.Pmfs.create ~nocache:true ~pages ~perf () in
      {
        fs = V.Fs ((module Baselines.Engine_vfs), t);
        sys;
        kernfs = None;
        device = t.Baselines.Engine.dev;
      }
  | Nova ->
      let t = Baselines.Nova.create ~pages ~perf () in
      {
        fs = V.Fs ((module Baselines.Engine_vfs), t);
        sys;
        kernfs = None;
        device = t.Baselines.Engine.dev;
      }
  | Nova_noindex ->
      let t = Baselines.Nova.create ~noindex:true ~pages ~perf () in
      {
        fs = V.Fs ((module Baselines.Engine_vfs), t);
        sys;
        kernfs = None;
        device = t.Baselines.Engine.dev;
      }
  | Novai ->
      let t = Baselines.Nova.create ~in_place:true ~pages ~perf () in
      {
        fs = V.Fs ((module Baselines.Engine_vfs), t);
        sys;
        kernfs = None;
        device = t.Baselines.Engine.dev;
      }
  | Novai_noindex ->
      let t = Baselines.Nova.create ~in_place:true ~noindex:true ~pages ~perf () in
      {
        fs = V.Fs ((module Baselines.Engine_vfs), t);
        sys;
        kernfs = None;
        device = t.Baselines.Engine.dev;
      }
  | Strata ->
      let fs = Baselines.Strata.fs ~pages ~perf () in
      let device =
        match fs with V.Fs (_, _) ->
          (* the Strata device is private; expose a dummy reference *)
          Nvm.Device.create ~perf:Nvm.Perf.free ~size:Nvm.page_size ()
      in
      { fs; sys; kernfs = None; device }
  in
  (match inst.sys with
  | Zofs | Zofs_variant _ -> ()  (* make_zofs already attached *)
  | _ -> Obs.attach_device inst.device);
  inst

let one_coffer_variant =
  Zofs_variant
    ({ Zofs.Ufs.default_variant with Zofs.Ufs.one_coffer = true }, "ZoFS-1coffer")

let sysempty_variant =
  Zofs_variant
    ({ Zofs.Ufs.default_variant with Zofs.Ufs.sysempty = true }, "ZoFS-sysempty")

let kwrite_variant =
  Zofs_variant
    ({ Zofs.Ufs.default_variant with Zofs.Ufs.kwrite = true }, "ZoFS-kwrite")
