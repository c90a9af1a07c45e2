#include "adl/adl_sarm.hpp"

namespace osm::adl {

std::string sarm_osmdl() {
    return R"(
; SARM, paper Fig. 6: F D E B W plus reset edges and the multiplier.
; The managers m_f m_d m_e m_b m_w m_mul (stages, multiplier), m_r m_fr
; (register files) and m_reset, and the actions, are sarm::sarm_model's.
machine sarm_adl
slots 7                              ; gpr_s1 gpr_s2 fpr_s1 fpr_s2 gpr_dst fpr_dst mul

state I initial
state F
state D
state E
state B
state W

edge I -> F { allocate m_f 0  action fetch }

edge F -> I priority 10 { inquire m_reset 0  discard_all }
edge D -> I priority 10 { inquire m_reset 0  discard_all }

edge F -> D { release m_f 0  allocate m_d 0 }

edge D -> E {
  release m_d 0
  allocate m_e 0
  inquire m_r  slot 0
  inquire m_r  slot 1
  inquire m_fr slot 2
  inquire m_fr slot 3
  allocate m_r  slot 4
  allocate m_fr slot 5
  allocate m_mul slot 6
  action execute
}

edge E -> B {
  release m_e 0
  release m_mul slot 6
  allocate m_b 0
  action mem
}

edge B -> W { release m_b 0  allocate m_w 0  action buffer_exit }

edge W -> I {
  release m_w 0
  release m_r  slot 4
  release m_fr slot 5
  action retire
}
)";
}

}  // namespace osm::adl
